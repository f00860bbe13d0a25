// Command perfbench is the repository benchmark. One invocation runs
// one named workload against the real hadfl stack in this process —
// the façade, hadfl-serve's server and pool, the dispatcher and
// loopback-TCP workers, all at the shipped defaults — checks the
// outputs, and prints every metric by name with its unit. The last
// line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the workload runs once untraced and once traced, and the metrics are
// the per-layer ones taken from the traced run's spans.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload dispatch-fresh --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"hadfl/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one invocation's knobs.
type runConfig struct {
	seed    int64
	seconds float64
	smoke   bool
	traced  bool
}

func (c runConfig) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// measurement is what one workload run produced.
type measurement struct {
	e2e       map[string]float64
	layers    map[string]float64 // traced runs only
	attempted int
	failed    int
	problems  []string // failed output checks
	invalid   string   // non-empty when a validity guard tripped
	detail    map[string]any
	spans     []trace.SpanData
}

func (m *measurement) problem(format string, args ...any) {
	if len(m.problems) < 20 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each BENCHMARK.json workload to its runner.
var workloads = map[string]func(runConfig) (*measurement, error){
	"table1-conv":    runTable1,
	"serve-hits":     runServeHits,
	"dispatch-fresh": runDispatchFresh,
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: table1-conv, serve-hits or dispatch-fresh")
	seed := fs.Int64("seed", 1, "seed that generates the workload's whole schedule")
	seconds := fs.Float64("seconds", 30, "length of the timed window")
	traced := fs.Int("trace", 0, "1 = run untraced and traced, report per-layer metrics")
	smoke := fs.Bool("smoke", false, "shrink the workload to a seconds-long sanity run")
	outDir := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the full result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke}
	hdr := header(*name, cfg, *traced)

	m, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	metrics, defs := m.e2e, endToEnd
	if *traced == 1 {
		cfg.traced = true
		tm, err := wl(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s (traced): %v\n", *name, err)
			return 1
		}
		tm.layers["trace.overhead_pct"] = 100 * (tm.e2e["op_ms_p50"] - m.e2e["op_ms_p50"]) / m.e2e["op_ms_p50"]
		tm.problems = append(m.problems, tm.problems...)
		if tm.invalid == "" {
			tm.invalid = m.invalid
		}
		tm.attempted += m.attempted
		tm.failed += m.failed
		m = tm
		metrics, defs = m.layers, perLayer
	}
	hdr["valid"] = m.invalid == ""
	if m.invalid != "" {
		hdr["invalid"] = m.invalid
		fmt.Fprintf(stderr, "perfbench: run invalid: %s\n", m.invalid)
	}
	for _, p := range m.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	res := result{
		Correct:   len(m.problems) == 0 && m.invalid == "",
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: internal error: metric %s not measured\n", d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: nothing was attempted")
		return 1
	}
	if err := writeFiles(*outDir, hdr, res, m); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing results: %v\n", err)
		return 1
	}
	hb, _ := json.Marshal(hdr)
	fmt.Fprintf(stdout, "# header %s\n", hb)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// header is the provenance every result carries.
func header(name string, cfg runConfig, traced int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      traced,
		"smoke":      cfg.smoke,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// writeFiles stores the full result (header, metrics, workload detail)
// and, for traced runs, every recorded span.
func writeFiles(dir string, hdr map[string]any, res result, m *measurement) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", hdr["workload"], hdr["seed"], hdr["trace"])
	full, err := json.MarshalIndent(map[string]any{
		"header": hdr, "result": res, "problems": m.problems, "detail": m.detail,
	}, "", "  ")
	if err != nil {
		return err
	}
	errs := []error{os.WriteFile(filepath.Join(dir, stem+".json"), full, 0o644)}
	if len(m.spans) > 0 {
		spans, err := json.Marshal(m.spans)
		errs = append(errs, err, os.WriteFile(filepath.Join(dir, stem+".spans.json"), spans, 0o644))
	}
	return errors.Join(errs...)
}
