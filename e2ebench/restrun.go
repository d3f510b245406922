package main

import (
	"fmt"
	"net/http"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// connections is the number of client connections (or writer goroutines):
// one per core of the 2-core machine the workloads were sized on.
const connections = 2

// runREST runs one of the HTTP workloads.
func runREST(sp spec, opt options) (*result, error) {
	w, setup, err := buildTimed(sp, opt, func(dir string) (*world, error) {
		return buildWorld(sp, worldSeed, dir)
	})
	if err != nil {
		return nil, err
	}
	defer w.close()
	conns := w.newConns(opt.seed)
	defer closeConns(conns)
	res := &result{Loopback: true}
	warmup := w.warmup(conns)
	if opt.trace {
		return traceRun(sp, 8, &restTrace{w: w, conns: conns}, res, opt, warmup), nil
	}

	closedD, openD := phaseSplit(opt.seconds)
	reseed(conns, opt.seed, 1)
	open := openLoop(workersOf(conns), sp.OfferedRate, openD)
	addLatency(res, open)
	measureHeap(res, warmup, open)
	reseed(conns, opt.seed, 2)
	closed := closedLoop(workersOf(conns), closedD)
	res.set("setup_s", "s", setup)
	res.set("throughput_ops_s", "ops/s", closed.rate())
	res.extra("closed.cpu_us_per_op", "us", ratio(closed.cpu*1e6, float64(closed.ok)))
	res.extra("closed.steal_frac", "fraction", closed.steal)
	finish(res, warmup, closed, open, readBackCount(res, w.verifyWrites(conns)))
	addOpCounts(res, conns)
	return res, nil
}

func (w *world) newConns(seed int64) []*restConn {
	conns := make([]*restConn, connections)
	for i := range conns {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		conns[i] = newRestConn(w, i, seed, tr)
	}
	return conns
}

func closeConns(conns []*restConn) {
	for _, c := range conns {
		c.hc.CloseIdleConnections()
	}
}

func workersOf(conns []*restConn) []worker {
	ws := make([]worker, len(conns))
	for i, c := range conns {
		ws[i] = c
	}
	return ws
}

// reseed gives every phase its own op streams, so a phase's inputs do not
// depend on how far the previous phase got.
func reseed(conns []*restConn, seed int64, phase int64) {
	for _, c := range conns {
		c.reseed(seed, phase)
	}
}

// warmup fills the caches with untimed traffic; where the workload asks,
// it then runs writes alone until the event bus holds its full history,
// so every later write pays the steady-state publish cost.
func (w *world) warmup(conns []*restConn) *phase {
	reseed(conns, 0, 0)
	p := warm(workersOf(conns), w.sp.WarmupOps, nil)
	if w.sp.WarmupEvents > 0 {
		for _, c := range conns {
			c.writesOnly = true
		}
		target := int64(w.sp.WarmupEvents)
		p.add(warm(workersOf(conns), 256, func() bool { return w.svc.Bus().Published() >= target }))
		for _, c := range conns {
			c.writesOnly = false
		}
		if got := w.svc.Bus().Published(); got < target {
			p.failed++
			p.errs = append(p.errs, fmt.Sprintf("warm-up published %d events, want %d", got, target))
		}
	}
	return p
}

// restTrace adapts a REST world and its connections to the traced run.
type restTrace struct {
	w     *world
	conns []*restConn
	tr    *tracer
}

func (t *restTrace) workers() []worker        { return workersOf(t.conns) }
func (t *restTrace) reseed(seed, phase int64) { reseed(t.conns, seed, phase) }
func (t *restTrace) verify() *phase           { return t.w.verifyWrites(t.conns) }

func (t *restTrace) counters() counters {
	walPath := ""
	if t.w.sp.Fsync == "batch" {
		walPath = t.w.walPath
	}
	c := readCounters(t.w.svc, t.w.db, walPath)
	for _, cn := range t.conns {
		c.notModified += cn.notModified
	}
	return c
}

func (t *restTrace) attach(tr *tracer) {
	if tr != nil {
		t.tr = tr
	}
	for _, c := range t.conns {
		c.tr = tr
	}
}

func (t *restTrace) allocs(res *result) {
	server, svc := t.tr.allocs()
	res.set("server.allocs_per_op", "count", server)
	res.set("catalog.allocs_per_op", "count", svc)
}

// addOpCounts reports how many ops of each kind ran and the conditional
// read outcomes.
func addOpCounts(res *result, conns []*restConn) {
	var byKind [numOpKinds]int64
	var revalidated, notModified, denied int64
	for _, c := range conns {
		for k := range byKind {
			byKind[k] += c.byKind[k]
		}
		revalidated += c.revalidated
		notModified += c.notModified
		denied += c.denied
	}
	for k, n := range byKind {
		if n > 0 {
			res.extra("ops."+opNames[k], "count", float64(n))
		}
	}
	res.extra("ops.revalidated", "count", float64(revalidated))
	res.extra("ops.not_modified", "count", float64(notModified))
	res.extra("ops.denied_as_expected", "count", float64(denied))
}

// verifyWrites reads back every acknowledged write: first from the live
// service, then, for a durable world, from a fresh store.Open replay of
// the WAL. Each (asset, check) is one attempted op.
func (w *world) verifyWrites(conns []*restConn) *phase {
	p := &phase{}
	if len(w.m.writers) == 0 {
		return p
	}
	w.readBack(w.svc, conns, p)
	if w.sp.Fsync != "batch" {
		return p
	}
	if err := w.close(); err != nil {
		p.record(false, fmt.Errorf("close store: %w", err), 0)
		return p
	}
	db, err := store.Open(store.Options{WALPath: w.walPath})
	if err != nil {
		p.record(false, fmt.Errorf("replay WAL: %w", err), 0)
		return p
	}
	defer db.Close()
	svc, err := catalog.New(catalog.Config{DB: db})
	if err == nil {
		_, err = svc.OpenMetastore(msID)
	}
	if err != nil {
		p.record(false, fmt.Errorf("reopen catalog: %w", err), 0)
		return p
	}
	w.readBack(svc, conns, p)
	return p
}

func (w *world) readBack(svc *catalog.Service, conns []*restConn, p *phase) {
	admin := adminCtx()
	check := func(err error) { p.record(false, err, 0) }
	for _, c := range conns {
		for a, want := range c.comments {
			full := w.m.assets[a].full
			e, err := svc.GetAsset(admin, full)
			if err == nil && e.Comment != want {
				err = fmt.Errorf("read back %s: comment %q, want %q", full, e.Comment, want)
			}
			check(err)
		}
		for a, want := range c.granted {
			full := w.m.assets[a].full
			gs, err := svc.GrantsOn(admin, full)
			if err == nil && hasGrant(gs, toggleGrantee, privilege.Select) != want {
				err = fmt.Errorf("read back %s: %s SELECT grant present=%t, want %t", full, toggleGrantee, !want, want)
			}
			check(err)
		}
		for a, want := range c.tagged {
			full := w.m.assets[a].full
			tags, err := svc.Tags(admin, full)
			if err == nil && tags["pipeline_run"] != want {
				err = fmt.Errorf("read back %s: tag %q, want %q", full, tags["pipeline_run"], want)
			}
			check(err)
		}
		for _, full := range c.created {
			_, err := svc.GetAsset(admin, full)
			check(err)
		}
	}
}

func hasGrant(gs []privilege.Grant, p privilege.Principal, priv privilege.Privilege) bool {
	for _, g := range gs {
		if g.Principal == p && g.Privilege == priv {
			return true
		}
	}
	return false
}

// sinceMicros is the time since t0 in microseconds.
func sinceMicros(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }
