package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ldcdft/internal/cache"
	"ldcdft/internal/expmatrix"
	"ldcdft/internal/perf"
	"ldcdft/internal/serve"
)

// picker returns a client's next job and whether it repeats a spec the
// client already completed. done lists those specs, oldest first. Each
// client owns its picker, so a picker may keep state.
type picker func(rng *rand.Rand, i int, done []serve.JobSpec) (serve.JobSpec, bool)

// jobWorkload is a closed-loop job stream against an in-process qmdd.
type jobWorkload struct {
	// specs derives the workload's base job specs from the seed.
	specs func(seed int64, dir string) ([]serve.JobSpec, error)
	// newPicker makes one client's picker over the base specs.
	newPicker func(base []serve.JobSpec) picker
	// check validates a completed job's results and returns the failure.
	check func(spec serve.JobSpec, res *serve.Results) string
	// energies selects the values compared against references and replays.
	energies func(res *serve.Results) []float64
	// replayTolHa bounds an in-process replay's distance from the served
	// job; 0 demands bitwise equality.
	replayTolHa float64
}

// captureSpecs expands an expmatrix experiment into the job specs its
// scenario generator submits, without running them: the capturing
// client records each submission and reports it failed.
func captureSpecs(spec expmatrix.Spec, dir string) ([]serve.JobSpec, error) {
	store, err := expmatrix.OpenStore(dir, spec.Name)
	if err != nil {
		return nil, err
	}
	c := &captureClient{}
	if _, err := (&expmatrix.Runner{Client: c, Store: store}).Run(context.Background(), &spec); err != nil {
		return nil, err
	}
	return c.specs, nil
}

type captureClient struct{ specs []serve.JobSpec }

func (c *captureClient) Submit(_ context.Context, s serve.JobSpec) (string, error) {
	c.specs = append(c.specs, s)
	return strconv.Itoa(len(c.specs)), nil
}

func (c *captureClient) Wait(context.Context, string) (*serve.JobState, error) {
	return &serve.JobState{Status: serve.StatusFailed, Error: "captured, not run"}, nil
}

func (c *captureClient) Results(string) (*serve.Results, error) { return nil, serve.ErrNoResults }

// repeatBlock and repeatsPerBlock set the exact-resubmission share of
// h2-jobs: 1 of every 4 submissions. The median latency then lies at
// the first third of the miss population, away from both its lower tail
// and the gap between the exact-hit and miss modes; near a tail it
// follows the fastest moments of a shared host instead of the run.
const (
	repeatBlock     = 4
	repeatsPerBlock = 1
)

// h2Jobs is the ldc-h2 expmatrix job shape (H₂ in an 8 Bohr box, 12³
// grid, one domain, Ecut 4, checkpoint every step) with fresh seeded
// H–H geometries, one in four submissions being an exact resubmission.
var h2Jobs = jobWorkload{
	specs: func(seed int64, dir string) ([]serve.JobSpec, error) {
		return captureSpecs(expmatrix.Spec{
			Name:     "h2-jobs",
			Scenario: "ldc-h2",
			Base:     expmatrix.Base{Steps: 3, Seed: 1},
			Axes:     []expmatrix.Axis{{Name: "domains", Values: []float64{1}}},
		}, dir)
	},
	newPicker: func(base []serve.JobSpec) picker {
		var repeatAt map[int]bool
		return func(rng *rand.Rand, i int, done []serve.JobSpec) (serve.JobSpec, bool) {
			if i%repeatBlock == 0 {
				repeatAt = map[int]bool{}
				for _, k := range rng.Perm(repeatBlock)[:repeatsPerBlock] {
					repeatAt[i+k] = true
				}
			}
			if repeatAt[i] && len(done) > 0 {
				return done[rng.Intn(len(done))], true
			}
			return h2Geometry(base[0], rng), false
		}
	},
	check: func(spec serve.JobSpec, res *serve.Results) string {
		if res.Steps != spec.Steps || len(res.EnergiesHa) != spec.Steps {
			return fmt.Sprintf("results carry %d steps / %d energies, want %d", res.Steps, len(res.EnergiesHa), spec.Steps)
		}
		return ""
	},
	energies:    func(res *serve.Results) []float64 { return res.EnergiesHa },
	replayTolHa: refTolHa, // the served run may have been seeded by a near hit
}

// h2Geometry places an H₂ molecule with a seeded bond length (1.3–1.5
// Bohr) along a seeded grid axis, centred within ±0.5 Bohr of the box
// centre. The bond stays on a grid axis, like the shipped ldc-h2
// geometry: a diagonal bond takes about three times the SCF iterations
// on the 12³ grid and can exceed the spec's 80-iteration limit.
func h2Geometry(base serve.JobSpec, rng *rand.Rand) serve.JobSpec {
	d := 1.3 + 0.2*rng.Float64()
	axis := rng.Intn(3)
	var c [3]float64
	for k := range c {
		c[k] = base.CellL/2 + rng.Float64() - 0.5
	}
	spec := base
	spec.Atoms = []serve.AtomSpec{{Species: "H", Position: c}, {Species: "H", Position: c}}
	spec.Atoms[0].Position[axis] -= d / 2
	spec.Atoms[1].Position[axis] += d / 2
	return spec
}

// lialSteps is the trajectory length of one lial-reactive job.
const lialSteps = 100

// lialReactive is the fig9a-arrhenius cell shape (Li₂₀Al₂₀ in water,
// thermostat at 300, 600 or 1500 K, checkpoint every step) with the
// structure seeded by the workload seed and a fresh velocity seed per
// job.
var lialReactive = jobWorkload{
	specs: func(seed int64, dir string) ([]serve.JobSpec, error) {
		spec, ok := expmatrix.Builtin("fig9a-arrhenius")
		if !ok {
			return nil, errors.New("perfbench: no builtin experiment fig9a-arrhenius")
		}
		spec.Base.Steps = lialSteps
		spec.Base.Seed = seed
		return captureSpecs(spec, dir)
	},
	newPicker: func(base []serve.JobSpec) picker {
		return func(rng *rand.Rand, _ int, _ []serve.JobSpec) (serve.JobSpec, bool) {
			spec := base[rng.Intn(len(base))]
			r := *spec.Reactive
			r.Seed = rng.Int63n(1 << 31)
			spec.Reactive = &r
			return spec, false
		}
	},
	check: func(spec serve.JobSpec, res *serve.Results) string {
		switch {
		case res.Steps != spec.Steps:
			return fmt.Sprintf("results carry %d steps, want %d", res.Steps, spec.Steps)
		case res.Census == nil:
			return "results carry no species census"
		}
		return ""
	},
	// Only the final energy is compared: a reordering of floating-point
	// sums changes a reactive trajectory's later energies.
	energies: func(res *serve.Results) []float64 { return []float64{res.FinalEnergyHa} },
}

// runJobs starts qmdd in-process — warm-start cache, manager and its
// HTTP handler on a loopback listener — and drives it with one
// closed-loop client: it submits, waits for the done event, fetches the
// results, runs the host-speed probe and only then submits its next job.
// One client keeps a job's time free of the benchmark's own contention
// and leaves the probe a moment when no job is in flight.
func runJobs(env *childEnv, res *childResult, wl jobWorkload) error {
	base, err := wl.specs(env.seed, filepath.Join(env.dir, "specs"))
	if err != nil {
		return err
	}
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	wsc, err := cache.Open(cache.Options{Dir: filepath.Join(env.dir, "cache")})
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	m, err := serve.NewManager(serve.Config{DataDir: filepath.Join(env.dir, "data"), Workers: workers, Cache: wsc})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Shutdown(context.Background())
		return err
	}
	srv := &http.Server{Handler: m.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(context.Background())
		<-served
		m.Shutdown(context.Background())
	}()
	if env.setupDone(res) {
		return nil
	}

	cl := &jobClient{base: "http://" + ln.Addr().String(), http: &http.Client{}, tr: env.tr}
	cache0 := wsc.Stats()
	perf.Default.Reset()
	start, cpu0 := time.Now(), cpuSeconds()
	ops, done, probes := clientLoop(env, start, cl, wl, base, refs)
	res.WallS, res.CPUS = time.Since(start).Seconds(), cpuSeconds()-cpu0
	res.Ops, res.ProbeS = ops, probes
	res.addPhases(perf.Default.Export())
	cache1 := wsc.Stats()
	res.Cache = cache.Stats{
		Hits:               cache1.Hits - cache0.Hits,
		NearHits:           cache1.NearHits - cache0.NearHits,
		Misses:             cache1.Misses - cache0.Misses,
		SCFIterationsSaved: cache1.SCFIterationsSaved - cache0.SCFIterationsSaved,
	}
	res.Serve = m.Stats()
	if len(done) == 0 {
		return nil // nothing completed; every op already carries its failure
	}
	return replay(env, res, wl, done[0])
}

// clientLoop is the closed-loop client. Its job sequence depends only
// on the seed. It returns the operations, the unique specs that
// completed, oldest first, and the time of each host-speed probe.
func clientLoop(env *childEnv, start time.Time, cl *jobClient, wl jobWorkload,
	base []serve.JobSpec, refs map[string]reference) ([]op, []serve.JobSpec, []float64) {
	rng := rand.New(rand.NewSource(env.seed * 1_000_003))
	pick := wl.newPicker(base)
	hp := newProbe()
	var ops []op
	var done []serve.JobSpec
	var probes []float64
	firstRun := map[string][]float64{}
	for i := 0; env.more(start, i); i++ {
		spec, repeat := pick(rng, i, done)
		spec.Name = ""
		o := op{Index: i, Repeat: repeat, Digest: digestOf(spec)}
		results := cl.run(&o, spec, i+1)
		if o.Err == "" {
			o.Steps, o.SCFIterations = results.Steps, results.SCFIterations
			o.EnergiesHa = wl.energies(results)
			if results.Census != nil {
				o.H2 = results.Census.H2
			}
			o.Err = wl.check(spec, results)
		}
		if o.Err == "" {
			o.Err = checkEnergies(refs, o.Digest, o.EnergiesHa)
		}
		if o.Err == "" && repeat && !sameBits(firstRun[o.Digest], o.EnergiesHa) {
			o.Err = fmt.Sprintf("resubmission replayed %v, first run gave %v", o.EnergiesHa, firstRun[o.Digest])
		}
		if o.Err == "" && !repeat {
			done = append(done, spec)
			firstRun[o.Digest] = o.EnergiesHa
		}
		ops = append(ops, o)
		probes = append(probes, hp.run())
		if o.Rejected {
			time.Sleep(50 * time.Millisecond) // back off from a full queue
		}
	}
	return ops, done, probes
}

// replay reruns a job the run completed directly through the
// program's trajectory runner, without the daemon and the cache, and
// fails the served job if the two disagree.
func replay(env *childEnv, res *childResult, wl jobWorkload, spec serve.JobSpec) error {
	rep, err := serve.QMDRunner{}.Run(context.Background(), spec, filepath.Join(env.dir, "replay.ck"), nil)
	if err != nil {
		return fmt.Errorf("perfbench: replay: %w", err)
	}
	want := wl.energies(rep.Results)
	digest := digestOf(spec)
	for i := range res.Ops {
		o := &res.Ops[i]
		if o.Digest != digest || o.Err != "" {
			continue
		}
		for k := range want {
			if len(o.EnergiesHa) != len(want) || math.Abs(want[k]-o.EnergiesHa[k]) > wl.replayTolHa {
				o.Err = fmt.Sprintf("served energies %v, direct replay %v", o.EnergiesHa, want)
				break
			}
		}
	}
	return nil
}

// jobClient speaks the qmdd HTTP API.
type jobClient struct {
	base string
	http *http.Client
	tr   *tracer
}

// run submits spec, follows its event stream to the done event and
// fetches its final state and results, filling o's timings. Failures
// land in o.Err.
func (c *jobClient) run(o *op, spec serve.JobSpec, run int) *serve.Results {
	body, err := json.Marshal(spec)
	if err != nil {
		o.Err = err.Error()
		return nil
	}
	t0 := time.Now()
	var sub serve.JobState
	code, err := c.do(http.MethodPost, "/v1/jobs", body, &sub)
	t1 := time.Now()
	o.SubmitS = seconds(t0, t1)
	switch {
	case err != nil:
		o.Err = "submit: " + err.Error()
		return nil
	case code == http.StatusTooManyRequests:
		o.Rejected, o.Err = true, "submit: rejected (429)"
		return nil
	case code != http.StatusCreated:
		o.Err = fmt.Sprintf("submit: HTTP %d", code)
		return nil
	}
	stepAt, doneAt, err := c.follow(sub.ID)
	if err != nil {
		o.Err = "events: " + err.Error()
		return nil
	}
	var st serve.JobState
	if code, err := c.do(http.MethodGet, "/v1/jobs/"+sub.ID, nil, &st); err != nil || code != http.StatusOK {
		o.Err = fmt.Sprintf("status: HTTP %d %v", code, err)
		return nil
	}
	if st.Status != serve.StatusCompleted {
		o.Err = fmt.Sprintf("job %s: %s", st.Status, st.Error)
		return nil
	}
	var results serve.Results
	if code, err := c.do(http.MethodGet, "/v1/jobs/"+sub.ID+"/results", nil, &results); err != nil || code != http.StatusOK {
		o.Err = fmt.Sprintf("results: HTTP %d %v", code, err)
		return nil
	}
	t2 := time.Now()

	o.LatencyS = seconds(t0, doneAt)
	o.RunS = seconds(st.StartedAt, st.FinishedAt)
	o.QueueS = seconds(st.SubmittedAt, st.StartedAt)
	o.NotifyS = seconds(st.FinishedAt, doneAt)
	o.FirstStepS, o.StepS = stepTimes(st.StartedAt, stepAt)
	if c.tr != nil {
		root := c.tr.add("client.job", run, 0, t0, t2)
		c.tr.add("serve.submit", run, root, t0, t1)
		c.tr.add("serve.queue", run, root, st.SubmittedAt, st.StartedAt)
		traj := c.tr.add("serve.run", run, root, st.StartedAt, st.FinishedAt)
		prev := st.StartedAt
		for _, at := range stepAt {
			c.tr.add("qmd.step", run, traj, prev, at)
			prev = at
		}
		c.tr.add("serve.notify", run, root, st.FinishedAt, doneAt)
		c.tr.add("serve.results", run, root, doneAt, t2)
	}
	return &results
}

// do sends one request and decodes a JSON reply into out.
func (c *jobClient) do(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// follow reads the job's SSE stream until the done event, returning
// when each step event and the done event arrived.
func (c *jobClient) follow(id string) (stepAt []time.Time, doneAt time.Time, err error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, time.Time{}, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		at := time.Now()
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, time.Time{}, err
		}
		switch ev.Type {
		case "step":
			stepAt = append(stepAt, at)
		case "done":
			return stepAt, at, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, time.Time{}, err
	}
	return nil, time.Time{}, errors.New("stream ended before the done event")
}
