package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"ldcdft/internal/cache"
	"ldcdft/internal/perf"
	"ldcdft/internal/serve"
)

// op is one measured operation: a job of h2-jobs or lial-reactive. Err
// is empty for a job that completed and passed its checks; anything else
// counts as failed.
type op struct {
	Index  int    `json:"index"`
	Repeat bool   `json:"repeat,omitempty"`
	Digest string `json:"digest"`

	LatencyS   float64 `json:"latency_s"` // as the caller sees it: POST → done event
	RunS       float64 `json:"run_s"`     // the trajectory alone
	SubmitS    float64 `json:"submit_s,omitempty"`
	QueueS     float64 `json:"queue_s,omitempty"`
	NotifyS    float64 `json:"notify_s,omitempty"`
	FirstStepS float64 `json:"first_step_s,omitempty"`
	StepS      float64 `json:"step_s,omitempty"` // mean of the steps after the first

	Steps         int       `json:"steps"`
	SCFIterations int       `json:"scf_iterations,omitempty"`
	EnergiesHa    []float64 `json:"energies_ha,omitempty"`
	H2            int       `json:"h2,omitempty"`

	Rejected bool   `json:"rejected,omitempty"`
	Err      string `json:"error,omitempty"`
}

// childResult is what one workload process reports to the parent.
type childResult struct {
	SetupS    float64                    `json:"setup_s"`
	WallS     float64                    `json:"wall_s"`
	CPUS      float64                    `json:"cpu_s"` // process CPU time over WallS
	Ops       []op                       `json:"ops,omitempty"`
	Phases    map[string]perf.PhaseStats `json:"phases,omitempty"`
	Cache     cache.Stats                `json:"cache"`
	Serve     serve.Counters             `json:"serve"`
	PeakRSSMB float64                    `json:"peak_rss_mb"`
	Spans     []span                     `json:"spans,omitempty"`
	ProbeS    []float64                  `json:"probe_s,omitempty"` // one host-speed probe after each op
}

// addPhases folds a registry export into the per-phase sums.
func (r *childResult) addPhases(rep perf.Report) {
	if r.Phases == nil {
		r.Phases = map[string]perf.PhaseStats{}
	}
	for _, s := range rep.Phases {
		t := r.Phases[s.Name]
		t.Name = s.Name
		t.Calls += s.Calls
		t.Total += s.Total
		t.Flops += s.Flops
		t.Bytes += s.Bytes
		t.Max = max(t.Max, s.Max)
		t.GFlops = t.GFlopsPerSec()
		r.Phases[s.Name] = t
	}
}

// completed returns the operations that finished and passed their checks.
func completed(ops []op) []op {
	var out []op
	for _, o := range ops {
		if o.Err == "" {
			out = append(out, o)
		}
	}
	return out
}

// tally counts attempted and failed operations. A refused submission
// (429) and an operation whose output fails a check both count as
// failed.
func tally(ops []op) (attempted, failed int) {
	for _, o := range ops {
		attempted++
		if o.Err != "" {
			failed++
		}
	}
	return attempted, failed
}

// digestOf names an input by the hash of its JSON form; references and
// exact-replay checks are keyed by it.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: digest: %v", err)) // inputs are plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// refTolHa bounds the distance from a stored reference energy: loose
// enough for the ~1e-7 Ha dependence of the SCF result on GOMAXPROCS,
// tight enough to catch a change of the physics.
const refTolHa = 1e-5

// reference is the stored energy record of one input, captured on the
// default seed with -write-refs.
type reference struct {
	Workload   string    `json:"workload"`
	EnergiesHa []float64 `json:"energies_ha"`
}

//go:embed refs.json
var refsJSON []byte

func loadRefs() (map[string]reference, error) {
	refs := map[string]reference{}
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return nil, fmt.Errorf("perfbench: refs.json: %w", err)
	}
	return refs, nil
}

// checkEnergies compares an operation's energies with the stored
// reference for its input, if there is one, and returns the failure.
func checkEnergies(refs map[string]reference, digest string, got []float64) string {
	if !finite(got...) {
		return fmt.Sprintf("non-finite energy in %v", got)
	}
	ref, ok := refs[digest]
	if !ok {
		return ""
	}
	if len(got) != len(ref.EnergiesHa) {
		return fmt.Sprintf("%d energies, reference has %d", len(got), len(ref.EnergiesHa))
	}
	for i := range got {
		if d := math.Abs(got[i] - ref.EnergiesHa[i]); d > refTolHa {
			return fmt.Sprintf("energy %d is %.10f Ha, reference %.10f Ha (|Δ| %.2e > %.0e)",
				i, got[i], ref.EnergiesHa[i], d, refTolHa)
		}
	}
	return ""
}

// sameBits reports whether two energy series are bitwise identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// stepTimes derives an operation's first-step time and its mean time per
// later step from when the trajectory started and when each step ended.
// The mean, not the single intervals, is kept: a busy client receives
// step events in bursts, which distorts the intervals but not their sum.
func stepTimes(start time.Time, ends []time.Time) (first, later float64) {
	if len(ends) == 0 {
		return 0, 0
	}
	first = seconds(start, ends[0])
	if n := len(ends); n > 1 {
		later = seconds(ends[0], ends[n-1]) / float64(n-1)
	}
	return first, later
}

// seconds converts an interval to float seconds.
func seconds(from, to time.Time) float64 { return to.Sub(from).Seconds() }
