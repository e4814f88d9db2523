// Command perfbench is the repository benchmark. It runs one workload —
// h2-jobs or lial-reactive — for a fixed time, checks the
// program's outputs, and prints one JSON result line: the end-to-end
// metrics named in BENCHMARK.json, or with -trace 1 the per-layer ones.
// Every workload runs in a child process of its own, so peak RSS, set-up
// time and the process-wide perf registry belong to that workload alone.
// README.md explains the workloads and how to read the metrics.
//
//	bash perfbench/run.sh --workload h2-jobs --seed 1 --seconds 45 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// workload is one benchmark workload as the child process runs it.
type workload struct {
	run      func(*childEnv, *childResult) error
	reactive bool // reactive force field, no SCF
}

var workloads = map[string]workload{
	"h2-jobs":       {run: func(e *childEnv, r *childResult) error { return runJobs(e, r, h2Jobs) }},
	"lial-reactive": {run: func(e *childEnv, r *childResult) error { return runJobs(e, r, lialReactive) }, reactive: true},
}

const (
	// setupRuns is the number of workload processes whose set-up time a
	// run measures: setupRuns−1 that only set up, plus the measured one.
	setupRuns = 21
	// runBudget caps one invocation; children still running are killed.
	runBudget = 170 * time.Second
	// defaultSeed is the seed the stored references were captured on.
	defaultSeed = 1
	// refsStored is how many of the first unique jobs -write-refs stores.
	refsStored = 4
)

func main() {
	var (
		name      = flag.String("workload", "", "workload: h2-jobs or lial-reactive")
		seed      = flag.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
		secs      = flag.Float64("seconds", 20, "measuring time of one run")
		trace     = flag.Int("trace", 0, "1 = report the per-layer metrics of a traced run")
		root      = flag.String("root", ".", "checkout root (holds BENCHMARK.json)")
		writeRefs = flag.Bool("write-refs", false, "store the energies of this default-seed run in perfbench/refs.json")

		child     = flag.Bool("child", false, "internal: run the workload in this process")
		setupOnly = flag.Bool("setup-only", false, "internal: stop after set-up")
		dir       = flag.String("dir", "", "internal: the child's data directory")
		out       = flag.String("out", "", "internal: where the child writes its result")
		t0        = flag.Int64("t0", 0, "internal: the child's start time, Unix nanoseconds")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	switch {
	case !ok:
		fail(fmt.Errorf("unknown workload %q", *name))
	case *secs <= 0:
		fail(fmt.Errorf("-seconds must be positive, got %g", *secs))
	case *trace != 0 && *trace != 1:
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *child {
		env := &childEnv{seed: *seed, seconds: *secs, setupOnly: *setupOnly,
			dir: *dir, t0: time.Unix(0, *t0), tr: newTracer(*trace == 1)}
		if err := runChild(wl, env, *out); err != nil {
			fail(err)
		}
		return
	}
	p := &parent{root: *root, name: *name, wl: wl, seed: *seed, seconds: *secs, trace: *trace == 1}
	if err := p.run(*writeRefs); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// childEnv is the workload process's view of its run.
type childEnv struct {
	seed      int64
	seconds   float64
	setupOnly bool
	dir       string
	t0        time.Time // when the parent started this process
	tr        *tracer
}

// setupDone records the set-up time, from process start to here, and
// reports whether the process was started only to measure it.
func (e *childEnv) setupDone(res *childResult) bool {
	res.SetupS = time.Since(e.t0).Seconds()
	return e.setupOnly
}

// more reports whether operation i should start: the first always does,
// later ones while measuring time remains.
func (e *childEnv) more(start time.Time, i int) bool {
	return i == 0 || time.Since(start).Seconds() < e.seconds
}

func runChild(wl workload, env *childEnv, out string) error {
	res := &childResult{}
	if err := wl.run(env, res); err != nil {
		return err
	}
	res.PeakRSSMB = peakRSSMB()
	res.Spans = env.tr.all()
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(out, b, 0o644)
}

// parent runs a workload's processes and reports the result.
type parent struct {
	root    string
	name    string
	wl      workload
	seed    int64
	seconds float64
	trace   bool

	ctx   context.Context
	bin   string
	work  string
	procs int // GOMAXPROCS of every workload process: nproc
	n     int
}

// child runs one workload process for secs of measuring time and reads
// back its result.
func (p *parent) child(trace bool, secs float64, setupOnly bool) (*childResult, error) {
	p.n++
	out := filepath.Join(p.work, fmt.Sprintf("child%d.json", p.n))
	cmd := exec.CommandContext(p.ctx, p.bin, "-child",
		"-workload", p.name,
		"-seed", strconv.FormatInt(p.seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64),
		"-trace", strconv.Itoa(btoi(trace)),
		"-setup-only="+strconv.FormatBool(setupOnly),
		"-dir", filepath.Join(p.work, fmt.Sprintf("child%d", p.n)),
		"-out", out)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(p.procs))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.Args = append(cmd.Args, "-t0", strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s process: %w", p.name, err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	var res childResult
	return &res, json.Unmarshal(b, &res)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (p *parent) run(writeRefs bool) error {
	man, err := loadManifest(filepath.Join(p.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if writeRefs && p.seed != defaultSeed {
		return fmt.Errorf("-write-refs needs the default seed %d", defaultSeed)
	}
	var cancel context.CancelFunc
	p.ctx, cancel = context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	if p.bin, err = os.Executable(); err != nil {
		return err
	}
	outDir := filepath.Join(p.root, ".bench_out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if p.work, err = os.MkdirTemp(outDir, p.name+"-"); err != nil {
		return err
	}
	defer os.RemoveAll(p.work)
	h := hostInfo(p.root)
	p.procs = h.NProc

	// Half the set-up-only processes run before the measured one and half
	// after it, so the median spans the whole run, not one moment of it.
	var setups []float64
	setupOnly := func(n int) error {
		for i := 0; i < n; i++ {
			r, err := p.child(false, p.seconds, true)
			if err != nil {
				return err
			}
			setups = append(setups, r.SetupS)
		}
		return nil
	}
	if err := setupOnly((setupRuns - 1) / 2); err != nil {
		return err
	}
	steal0, t0 := stolenS(), time.Now()
	measured, err := p.child(false, p.seconds, false)
	if err != nil {
		return err
	}
	stealFrac := (stolenS() - steal0) / (time.Since(t0).Seconds() * float64(p.procs))
	setups = append(setups, measured.SetupS)
	if err := setupOnly(setupRuns - len(setups)); err != nil {
		return err
	}
	runs := []*childResult{measured}
	metrics := endToEnd(setups, measured)
	var traced *childResult
	if p.trace {
		// The traced process measures half as long: its figures are per
		// operation, and the shorter window keeps a traced run inside
		// runBudget.
		if traced, err = p.child(true, p.seconds/2, false); err != nil {
			return err
		}
		runs = append(runs, traced)
		metrics = layerMetrics(p.wl, measured, traced)
	}

	res := result{Metrics: map[string]metricValue{}}
	var failures []string
	for _, r := range runs {
		a, f := tally(r.Ops)
		res.Attempted += a
		res.Failed += f
		for _, o := range r.Ops {
			if o.Err != "" {
				failures = append(failures, fmt.Sprintf("op %d: %s", o.Index, o.Err))
			}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	names := man.EndToEnd
	if p.trace {
		names = man.PerLayer
	}
	for _, m := range names {
		v, ok := metrics[m.Name]
		if !ok || !finite(v) {
			return fmt.Errorf("metric %s: not measured (value %v)", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}

	rec := record{Host: h, Workload: p.name, Seed: p.seed, Seconds: p.seconds, Trace: p.trace,
		StealFrac: stealFrac, Result: res, Failures: failures, SetupS: setups, Runs: runs}
	if traced != nil {
		rec.Layers = layerTable(traced.Spans)
	}
	report(os.Stderr, &rec)
	if err := writeRecord(filepath.Join(outDir, "results"), &rec); err != nil {
		return err
	}
	if writeRefs {
		if err := storeRefs(filepath.Join(p.root, "perfbench", "refs.json"), p.name, measured); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// layerMetrics is the per-layer report of a traced run: the traced
// process's layer figures and the tracing overhead against the untraced
// measured process.
func layerMetrics(wl workload, measured, traced *childResult) map[string]float64 {
	m := perLayer(traced, wl.reactive)
	base := endToEnd(nil, measured)["job_latency_p50_s"]
	over := endToEnd(nil, traced)["job_latency_p50_s"] - base
	m["trace.overhead_s"] = over
	m["trace.overhead_frac"] = over / max(base, 1e-9)
	return m
}

// manifest is the part of BENCHMARK.json the benchmark reads: which
// metrics to print, with their units.
type manifest struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return nil, fmt.Errorf("%s names no metrics", path)
	}
	return &m, nil
}

// record is everything a run measured: host, result, failures, set-up
// samples, per-layer span table, and each process's operations, phase
// totals and spans.
type record struct {
	Host     host      `json:"host"`
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Trace    bool      `json:"trace"`
	Result   result    `json:"result"`
	Failures []string  `json:"failures,omitempty"`
	SetupS   []float64 `json:"setup_samples_s"`
	// StealFrac is the share of the CPU time of the measured process's
	// window that the hypervisor gave to other guests. Time metrics of
	// runs with different steal do not compare.
	StealFrac float64        `json:"host_steal_frac"`
	Layers    []layerRow     `json:"layers,omitempty"`
	Runs      []*childResult `json:"runs"`
}

// writeRecord keeps the record in dir, one file per run.
func writeRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s.json", rec.Workload, rec.Seed, btoi(rec.Trace),
		time.Now().UTC().Format("20060102T150405.000"))
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// storeRefs adds the energies of the run's first unique operations to
// the reference file.
func storeRefs(path, workload string, r *childResult) error {
	refs := map[string]reference{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &refs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for _, o := range completed(r.Ops) {
		if !o.Repeat && o.Index < refsStored {
			refs[o.Digest] = reference{Workload: workload, EnergiesHa: o.EnergiesHa}
		}
	}
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report prints a readable summary of the record to w.
func report(w io.Writer, rec *record) {
	h, res := rec.Host, rec.Result
	fmt.Fprintf(w, "perfbench %s seed %d: %s %s/%s, %s, nproc %d, commit %s\n",
		rec.Workload, rec.Seed, h.GoVersion, h.GOOS, h.GOARCH, h.CPUModel, h.NProc, h.Commit)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-38s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  correct %t, %d attempted, %d failed; host steal %.1f%% of CPU time\n",
		res.Correct, res.Attempted, res.Failed, 100*rec.StealFrac)
	for i, f := range rec.Failures {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more failures\n", len(rec.Failures)-i)
			break
		}
		fmt.Fprintln(w, "  FAIL", f)
	}
	if rec.Layers != nil {
		writeLayerTable(w, rec.Layers)
	}
}
