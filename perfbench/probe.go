package main

import (
	"math"
	"math/cmplx"
	"time"
)

// The host-speed probe is a fixed piece of pure computation, the
// benchmark's own and not the program's: radix-2 complex FFTs and small
// dense matrix products on data that fits in the core's caches, the
// kinds of work an SCF step and a force evaluation do. The client runs it
// after every job, while no job is in flight, so what it measures is how
// fast the host ran the benchmark's process at that moment and nothing
// the program does. On a shared virtual machine that speed moves by
// tens of percent over minutes, with neighbours on the same physical
// cores and with time the hypervisor gives to other guests.
//
// The time metrics are reported at a fixed reference speed: a measured
// time is multiplied by probeRefS over the run's mean probe time (see
// hostScale and README.md, "Host speed").
const (
	probeFFTLen  = 1024
	probeFFTs    = 240
	probeMatN    = 48
	probeMatMuls = 120
	// probeRefS is the probe's typical mean time, over a run, on the
	// reference host: a 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest on a
	// shared machine, go1.24.
	probeRefS = 0.0175
)

type probe struct {
	x, w    []complex128
	a, b, c []float64
	sink    float64
}

func newProbe() *probe {
	p := &probe{
		x: make([]complex128, probeFFTLen),
		w: make([]complex128, probeFFTLen/2),
		a: make([]float64, probeMatN*probeMatN),
		b: make([]float64, probeMatN*probeMatN),
		c: make([]float64, probeMatN*probeMatN),
	}
	for k := range p.w {
		p.w[k] = cmplx.Rect(1, -2*math.Pi*float64(k)/probeFFTLen)
	}
	for i := range p.a {
		p.a[i] = math.Sin(float64(i))
		p.b[i] = math.Cos(float64(i))
	}
	return p
}

// run does the probe's work once and returns its wall time.
func (p *probe) run() float64 {
	t0 := time.Now()
	for r := 0; r < probeFFTs; r++ {
		for i := range p.x {
			p.x[i] = complex(float64(i%7)-3, float64(r%5))
		}
		fft(p.x, p.w)
		p.sink += real(p.x[r])
	}
	n := probeMatN
	for r := 0; r < probeMatMuls; r++ {
		for i := 0; i < n; i++ {
			ci := p.c[i*n : (i+1)*n]
			clear(ci)
			for k := 0; k < n; k++ {
				aik := p.a[i*n+k]
				bk := p.b[k*n : (k+1)*n]
				for j := range ci {
					ci[j] += aik * bk[j]
				}
			}
		}
		p.sink += p.c[r]
	}
	return time.Since(t0).Seconds()
}

// fft transforms x in place (iterative radix-2, decimation in time);
// w holds the len(x)/2 twiddle factors.
func fft(x, w []complex128) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half, step := size/2, n/size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				t := w[k*step] * x[start+k+half]
				x[start+k+half] = x[start+k] - t
				x[start+k] += t
			}
		}
	}
}
