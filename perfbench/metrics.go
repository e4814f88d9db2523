package main

// endToEnd computes the metrics a user of the system sees from the
// untraced run. setups holds the set-up time of every workload process
// the run started; the median is reported. time_to_solution_s is the
// median over the jobs that computed their trajectory: an exact
// resubmission is served from the cache and solves nothing. Times and
// rates of the jobs are brought to the reference host speed with
// hostScale; the probes' own time is not part of the measuring window.
func endToEnd(setups []float64, r *childResult) map[string]float64 {
	done := completed(r.Ops)
	var lat, run []float64
	steps := 0
	for _, o := range done {
		lat = append(lat, o.LatencyS)
		if !o.Repeat {
			run = append(run, o.RunS)
		}
		steps += o.Steps
	}
	tailS, _, _ := tail(lat)
	k := hostScale(r)
	wall := r.WallS
	for _, p := range r.ProbeS {
		wall -= p
	}
	wall = max(wall, 1e-9)
	return map[string]float64{
		"setup_s":            median(setups),
		"time_to_solution_s": median(run) * k,
		"job_latency_p50_s":  median(lat) * k,
		"job_latency_tail_s": tailS * k,
		"jobs_per_s":         float64(len(done)) / wall / k,
		"md_steps_per_s":     float64(steps) / wall / k,
		"peak_rss_mb":        r.PeakRSSMB,
	}
}

// hostScale is the factor that brings a run's times to the reference host
// speed: probeRefS over the mean time of the run's host-speed probes. The
// mean, not the median, because a job's time sums over the host's fast
// and slow moments alike; it is trimmed so a probe the kernel preempted
// does not move it. A run without probes is taken as it was measured.
func hostScale(r *childResult) float64 {
	if len(r.ProbeS) == 0 {
		return 1
	}
	return probeRefS / trimmedMean(r.ProbeS)
}

// perLayer computes the per-layer metrics of a run. Busy times and
// counts are per completed operation, so they compare across runs that
// complete different numbers of operations; busy times are summed over
// goroutines (see README.md). reactive marks the workload whose force
// field is the reactive surrogate.
func perLayer(r *childResult, reactive bool) map[string]float64 {
	done := completed(r.Ops)
	n := float64(max(len(done), 1))
	ph := r.Phases
	busy := func(name string) float64 { return ph[name].Total.Seconds() / n }
	calls := func(name string) float64 { return float64(ph[name].Calls) / n }
	gflops := func(name string) float64 { return ph[name].GFlopsPerSec() }

	m := map[string]float64{
		"scf.eigensolver_busy_s": busy("scf/eigensolver"),
		"scf.eigensolver_calls":  calls("scf/eigensolver"),
		"scf.eigensolver_unattributed_busy_s": busy("scf/eigensolver") -
			busy("pw/apply-hamiltonian") - busy("pw/orthonormalize"),
		"pw.apply_hamiltonian_busy_s": busy("pw/apply-hamiltonian"),
		"pw.apply_hamiltonian_gflops": gflops("pw/apply-hamiltonian"),
		"pw.orthonormalize_busy_s":    busy("pw/orthonormalize"),
		"pw.orthonormalize_gflops":    gflops("pw/orthonormalize"),
		"fft.c3d_busy_s":              busy("fft/3d"),
		"fft.c3d_calls":               calls("fft/3d"),
		"fft.c3d_gflops":              gflops("fft/3d"),
		"fft.r3d_busy_s":              busy("fft/3d-real"),
		"core.domain_solves_s":        busy("scf/domain-solves"),
		"core.hartree_s":              busy("scf/hartree-multigrid"),
		"core.chemical_potential_s":   busy("scf/chemical-potential"),
		"core.density_assembly_s":     busy("scf/density-assembly"),
		"core.force_eval_other_s": busy("md/force") - busy("scf/domain-solves") -
			busy("scf/hartree-multigrid") - busy("scf/chemical-potential") - busy("scf/density-assembly"),
		"multigrid.poisson_s":         busy("multigrid/poisson"),
		"multigrid.smooth_busy_s":     busy("multigrid/smooth"),
		"multigrid.residual_busy_s":   busy("multigrid/residual"),
		"md.force_s":                  busy("md/force"),
		"md.force_calls":              calls("md/force"),
		"md.integrate_s":              busy("md/integrate"),
		"cache.lookup_busy_s":         busy("cache/lookup"),
		"cache.put_busy_s":            busy("cache/put"),
		"cache.exact_hits":            float64(r.Cache.Hits) / n,
		"cache.near_hits":             float64(r.Cache.NearHits) / n,
		"cache.misses":                float64(r.Cache.Misses) / n,
		"cache.scf_iterations_saved":  float64(r.Cache.SCFIterationsSaved) / n,
		"qio.checkpoint_writes":       calls("qio/checkpoint-write"),
		"qio.checkpoint_write_busy_s": busy("qio/checkpoint-write"),
		"qio.checkpoint_mb_per_s":     ph["qio/checkpoint-write"].MBPerSec(),
		"serve.rejected":              float64(r.Serve.Rejected),
		"serve.failed":                float64(r.Serve.Failed),
	}
	if lookups := r.Cache.Hits + r.Cache.NearHits + r.Cache.Misses; lookups > 0 {
		m["cache.hit_ratio"] = float64(r.Cache.Hits+r.Cache.NearHits) / float64(lookups)
	} else {
		m["cache.hit_ratio"] = 0
	}

	var first, step, submit, queue, run, notify []float64
	iters, h2 := 0, 0
	for _, o := range done {
		iters += o.SCFIterations
		if o.FirstStepS > 0 {
			first = append(first, o.FirstStepS)
		}
		if o.StepS > 0 {
			step = append(step, o.StepS)
		}
		submit = append(submit, o.SubmitS)
		queue = append(queue, o.QueueS)
		run = append(run, o.RunS)
		notify = append(notify, o.NotifyS)
		h2 += o.H2
	}
	m["core.scf_iterations"] = float64(iters) / n
	m["process.cpu_s_per_op"] = r.CPUS / n
	m["host.probe_ms"] = trimmedMean(r.ProbeS) * 1e3
	m["qmd.first_step_s"] = median(first)
	m["qmd.step_s_p50"] = median(step)
	m["serve.submit_s_p50"] = median(submit)
	m["serve.queue_wait_s_p50"] = median(queue)
	m["serve.run_s_p50"] = median(run)
	m["serve.notify_lag_s_p50"] = median(notify)
	m["reactive.force_ms_per_step"], m["reactive.h2_census"] = 0, 0
	if reactive {
		// md/force times the reactive field here; no SCF stage runs.
		m["core.force_eval_other_s"] = 0
		if c := ph["md/force"].Calls; c > 0 {
			m["reactive.force_ms_per_step"] = ph["md/force"].Total.Seconds() * 1e3 / float64(c)
		}
		m["reactive.h2_census"] = float64(h2) / n
	}

	var lat []float64
	for _, o := range done {
		lat = append(lat, o.LatencyS)
	}
	_, pct, _ := tail(lat)
	attempted, failed := tally(r.Ops)
	m["job_latency_samples"] = float64(len(lat))
	m["job_latency_tail_pct"] = pct
	m["fail_frac"] = float64(failed) / float64(max(attempted, 1))
	return m
}
