package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"

	"ldcdft/internal/serve"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 50, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		v, pct, beyond := tail(xs)
		above := 0
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if above != tailBeyond || beyond != tailBeyond {
			t.Errorf("n=%d: %d samples above the tail %g (reported %d), want %d", n, above, v, beyond, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %g, want %g", n, pct, want)
		}
	}
	// Too few samples for ten beyond: the maximum, at percentile 100.
	if v, pct, beyond := tail([]float64{3, 1, 2}); v != 3 || pct != 100 || beyond != 0 {
		t.Errorf("short sample: tail %g at p%g with %d beyond, want 3 at p100 with 0", v, pct, beyond)
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "submit", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "queue", Start: 2, End: 5},   // overlaps submit
		{ID: 4, Parent: 1, Name: "notify", Start: 8, End: 12}, // runs past its parent
		{ID: 5, Parent: 2, Name: "step", Start: 2, End: 4},    // grandchild of job
	}
	want := map[int]float64{1: 10 - (4 + 2), 2: 2 - 1, 3: 3, 4: 4, 5: 2}
	got := selfTimes(spans)
	for id, w := range want {
		if d := got[id] - w; d > 1e-12 || d < -1e-12 {
			t.Errorf("span %d: self time %g, want %g", id, got[id], w)
		}
	}
	rows := layerTable(spans)
	if rows[0].Name != "job" || rows[0].SelfS != 4 || rows[0].TotalS != 10 || rows[0].Count != 1 {
		t.Errorf("first layer row %+v, want job with self 4 of total 10", rows[0])
	}
}

func TestWrongReferenceEnergyCountsAsFailure(t *testing.T) {
	refs := map[string]reference{"d": {EnergiesHa: []float64{-1.0, -1.1}}}
	if msg := checkEnergies(refs, "d", []float64{-1.0, -1.1 + refTolHa/2}); msg != "" {
		t.Fatalf("energy within tolerance rejected: %s", msg)
	}
	ops := []op{
		{Digest: "d", EnergiesHa: []float64{-1.0, -1.1}},
		{Digest: "d", EnergiesHa: []float64{-1.0, -1.1 + 10*refTolHa}},
		{Digest: "other", EnergiesHa: []float64{-3}},
	}
	for i := range ops {
		ops[i].Err = checkEnergies(refs, ops[i].Digest, ops[i].EnergiesHa)
	}
	if a, f := tally(ops); a != 3 || f != 1 {
		t.Fatalf("tally = %d attempted, %d failed; want 3, 1", a, f)
	}
	if got := perLayer(&childResult{Ops: ops}, false)["fail_frac"]; got != 1.0/3 {
		t.Errorf("fail_frac = %g, want 1/3", got)
	}
}

func TestRejectedSubmissionCountsAsFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"serve: job queue is full"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	cl := &jobClient{base: srv.URL, http: srv.Client()}
	var o op
	if res := cl.run(&o, serve.JobSpec{Steps: 1}, 1); res != nil || !o.Rejected || o.Err == "" {
		t.Fatalf("429 submission: results %v, op %+v; want a rejected, failed op", res, o)
	}
	ops := []op{o, {Steps: 3}}
	if got := perLayer(&childResult{Ops: ops}, false)["fail_frac"]; got != 0.5 {
		t.Errorf("fail_frac = %g, want 0.5", got)
	}
}

func TestH2PickerRepeatsDeterministically(t *testing.T) {
	base := []serve.JobSpec{{CellL: 8, Steps: 3}}
	sequence := func() (digests []string, repeats int) {
		rng := rand.New(rand.NewSource(42))
		pick := h2Jobs.newPicker(base)
		var done []serve.JobSpec
		for i := 0; i < 50; i++ {
			spec, repeat := pick(rng, i, done)
			if repeat {
				repeats++
			} else {
				done = append(done, spec)
			}
			digests = append(digests, digestOf(spec))
		}
		return digests, repeats
	}
	a, ra := sequence()
	b, _ := sequence()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("submission %d differs between two runs of one seed", i)
		}
	}
	// The first block may lose a repeat that has nothing to repeat yet.
	if ra < 50*repeatsPerBlock/repeatBlock-1 || ra > 50*repeatsPerBlock/repeatBlock {
		t.Errorf("%d repeats in 50 submissions, want about %d", ra, 50*repeatsPerBlock/repeatBlock)
	}
}

// TestManifestMatchesMetrics keeps BENCHMARK.json and the code in step:
// every metric the manifest names is computed, and nothing computed is
// left unnamed.
func TestManifestMatchesMetrics(t *testing.T) {
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	r := &childResult{Ops: []op{{RunS: 1, LatencyS: 1, Steps: 1}}, WallS: 1}
	check := func(kind string, defs []metricDef, got map[string]float64) {
		var named, computed []string
		for _, d := range defs {
			named = append(named, d.Name)
		}
		for k := range got {
			computed = append(computed, k)
		}
		slices.Sort(named)
		slices.Sort(computed)
		if !slices.Equal(named, computed) {
			t.Fatalf("%s: manifest names %v, code computes %v", kind, named, computed)
		}
	}
	e2e := endToEnd([]float64{0.1}, r)
	check("end_to_end", man.EndToEnd, e2e)
	check("per_layer", man.PerLayer, layerMetrics(workloads["h2-jobs"], r, r))
}

func TestRunChildWritesResult(t *testing.T) {
	dir := t.TempDir()
	env := &childEnv{seconds: 1, setupOnly: true, dir: dir, t0: time.Now()}
	out := dir + "/res.json"
	wl := workload{run: func(e *childEnv, r *childResult) error { e.setupDone(r); return nil }}
	if err := runChild(wl, env, out); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res childResult
	if err := json.Unmarshal(b, &res); err != nil || res.SetupS <= 0 || res.PeakRSSMB <= 0 {
		t.Fatalf("child result %s (%v): want positive set-up time and peak RSS", b, err)
	}
}

func TestHostScaleUsesTrimmedProbeMean(t *testing.T) {
	// Ten probes: the lowest and highest are dropped, the rest average 2·probeRefS.
	probes := []float64{0.001, 1}
	for i := 0; i < 8; i++ {
		probes = append(probes, 2*probeRefS)
	}
	r := &childResult{Ops: []op{{RunS: 3, LatencyS: 3, Steps: 2}}, WallS: 4 + 1.001 + 16*probeRefS, ProbeS: probes}
	m := endToEnd(nil, r)
	if got := m["time_to_solution_s"]; math.Abs(got-1.5) > 1e-12 {
		t.Errorf("time_to_solution_s = %g, want half the measured 3 s on a host at half the reference speed", got)
	}
	// The probes' own time is not part of the window: 4 s for one job.
	if got := m["jobs_per_s"]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("jobs_per_s = %g, want 0.5 (1 job in 4 s, at twice the rate on the reference host)", got)
	}
	if got := hostScale(&childResult{}); got != 1 {
		t.Errorf("hostScale without probes = %g, want 1", got)
	}
}
