package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"hadfl"
)

// determinismProbe runs one fixed configuration twice through the
// library and once over HTTP to a dispatched worker, and fails unless
// all three produced byte-identical FinalParams: the worker hashes them
// in its runner wrapper before they hit the wire, and the serve-side
// wrapper hashes what the dispatcher decoded.
func determinismProbe(j *jobSpec, trainLen int) error {
	var hashes []string
	for i := 0; i < 2; i++ {
		res, err := hadfl.RunContext(context.Background(), j.Scheme, j.Opts)
		if err != nil {
			return fmt.Errorf("probe library run %d: %w", i+1, err)
		}
		hashes = append(hashes, paramsHash(res.FinalParams))
	}
	led := newLedger()
	st, err := startStack(1, trainLen, led, nil)
	if err != nil {
		return fmt.Errorf("probe stack: %w", err)
	}
	defer st.close()
	c := newClient(st.base)
	defer c.close()
	code, body, err := c.do(http.MethodPost, "/runs", j.Body, "")
	if err != nil || code != http.StatusAccepted {
		return fmt.Errorf("probe POST: HTTP %d %s: %v", code, body, err)
	}
	stat, err := c.waitDone(j.ID, time.Now().Add(2*time.Minute))
	if err != nil {
		return fmt.Errorf("probe wait: %w", err)
	}
	if stat.State != "done" {
		return fmt.Errorf("probe job ended %s: %s", stat.State, stat.Error)
	}
	rec, ok := led.get(j.ID)
	if !ok || rec.WorkerHash == "" || rec.ServeHash == "" {
		return fmt.Errorf("probe job %.12s never reached the runner wrappers", j.ID)
	}
	hashes = append(hashes, rec.WorkerHash, rec.ServeHash)
	for _, h := range hashes[1:] {
		if h != hashes[0] {
			return fmt.Errorf("determinism probe %s: FinalParams differ (library %.12s…, %.12s…, worker %.12s…, served %.12s…)",
				j.Scheme, hashes[0], hashes[1], hashes[2], hashes[3])
		}
	}
	return nil
}
