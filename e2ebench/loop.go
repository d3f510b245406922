package main

import (
	"sync"
	"time"
)

// worker is one load-generating client; step generates its next op, runs
// it and checks the outcome.
type worker interface {
	step() (write bool, err error)
}

// phase is what one load phase observed.
type phase struct {
	ok, failed int64
	start      time.Time
	elapsed    time.Duration
	samples    []sample
	late       []float64 // open loop: send time minus due time, µs
	errs       []string  // first few unexpected outcomes
	// cpu is the process's CPU time during the phase, in seconds; steal
	// the share of the machine's CPU a hypervisor took meanwhile.
	cpu, steal float64
}

// sample is one completed op: when it completed (seconds into the phase),
// its latency in µs, and whether it was a write.
type sample struct {
	at, lat float64
	write   bool
}

func (p *phase) add(q *phase) {
	p.ok += q.ok
	p.failed += q.failed
	p.samples = append(p.samples, q.samples...)
	p.late = append(p.late, q.late...)
	if len(p.errs) < 5 {
		p.errs = append(p.errs, q.errs...)
	}
}

func (p *phase) record(write bool, err error, lat time.Duration) {
	if err != nil {
		p.failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, err.Error())
		}
		return
	}
	p.ok++
	p.samples = append(p.samples, sample{
		at: time.Since(p.start).Seconds(), lat: float64(lat.Nanoseconds()) / 1e3, write: write,
	})
}

// latencies returns the latencies of the phase's reads, writes or both.
func (p *phase) latencies(reads, writes bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if (s.write && writes) || (!s.write && reads) {
			out = append(out, s.lat)
		}
	}
	return out
}

func (p *phase) count(write bool) int {
	n := 0
	for _, s := range p.samples {
		if s.write == write {
			n++
		}
	}
	return n
}

// minPerWindow keeps each window's p99 resting on at least ten samples.
const minPerWindow = 1000

// windowed splits the phase's latencies into equal-time windows of at
// least minPerWindow samples (at most 10 windows) and returns the median
// over windows of each window's q-quantile, so a stall confined to one
// window moves the figure only as far as that window's rank.
func (p *phase) windowed(q float64) float64 {
	k := min(10, max(1, len(p.samples)/minPerWindow))
	wins := make([][]float64, k)
	for _, s := range p.samples {
		i := min(k-1, int(s.at/p.elapsed.Seconds()*float64(k)))
		wins[i] = append(wins[i], s.lat)
	}
	var qs []float64
	for _, w := range wins {
		if len(w) > 0 {
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

// rate is the median over eight equal-time windows of completed ops per
// second.
func (p *phase) rate() float64 {
	const k = 8
	var counts [k]float64
	for _, s := range p.samples {
		counts[min(k-1, int(s.at/p.elapsed.Seconds()*k))]++
	}
	rates := make([]float64, k)
	for i, c := range counts {
		rates[i] = c / (p.elapsed.Seconds() / k)
	}
	return median(rates)
}

// closedLoop runs every worker back to back for d: each sends its next op
// as soon as the previous one completes.
func closedLoop(ws []worker, d time.Duration) *phase {
	return runWorkers(ws, func(_ int, w worker, out *phase) {
		deadline := time.Now().Add(d)
		for {
			t0 := time.Now()
			if !t0.Before(deadline) {
				return
			}
			write, err := w.step()
			out.record(write, err, time.Since(t0))
		}
	})
}

// openLoop offers rate ops/s in total for d, split evenly over the
// workers, each an independent client on its own schedule that queues its
// ops behind one another. Latency is timed from when an op was due: each
// op waits in its client's queue for the ops before it, then takes its
// measured service time. The queue is replayed from the due times and the
// measured service times (Lindley's recurrence), so the generator's own
// timer slack is not charged to the system; how late the generator sent
// is reported as lateness instead.
func openLoop(ws []worker, rate float64, d time.Duration) *phase {
	interval := time.Duration(float64(len(ws)) / rate * 1e9)
	start := time.Now()
	return runWorkers(ws, func(i int, w worker, out *phase) {
		due := start.Add(interval * time.Duration(i) / time.Duration(len(ws)))
		end := start.Add(d)
		free := due // when the client's queue drains, had every op been sent on time
		for due.Before(end) {
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			sent := time.Now()
			out.late = append(out.late, float64(sent.Sub(due).Nanoseconds())/1e3)
			write, err := w.step()
			service := time.Since(sent)
			if free.Before(due) {
				free = due
			}
			free = free.Add(service)
			out.record(write, err, free.Sub(due))
			due = due.Add(interval)
		}
	})
}

// runWorkers runs fn once per worker on its own goroutine, waits for all
// of them, and merges what they observed.
func runWorkers(ws []worker, fn func(i int, w worker, out *phase)) *phase {
	outs := make([]phase, len(ws))
	cpu0, ticks0 := processCPU(), readCPUTimes()
	start := time.Now()
	for i := range outs {
		outs[i].start = start
	}
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i, ws[i], &outs[i])
		}(i)
	}
	wg.Wait()
	total := &phase{start: start, elapsed: time.Since(start), cpu: processCPU() - cpu0, steal: stealFrac(ticks0)}
	for i := range outs {
		total.add(&outs[i])
	}
	return total
}

// warm runs n ops per worker back to back, then keeps going until done
// reports true (or n more rounds pass without it).
func warm(ws []worker, n int, done func() bool) *phase {
	total := &phase{start: time.Now()}
	round := func() {
		total.add(runWorkers(ws, func(_ int, w worker, out *phase) {
			for i := 0; i < n; i++ {
				write, err := w.step()
				out.record(write, err, 0)
			}
		}))
	}
	round()
	for i := 0; done != nil && !done() && i < 64; i++ {
		round()
	}
	return total
}
