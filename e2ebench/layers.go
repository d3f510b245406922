package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"unitycatalog/internal/cache"
	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/jsonenc"
	"unitycatalog/internal/obs"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
)

// The traced run prices a deterministic sample of each workload's read
// ops at each layer boundary, from outside the program: the TCP round
// trip, the in-process ServeHTTP, the catalog.Service method, and the
// jsonenc append of its result, then the public functions of the layers
// beneath on the op's own records. Every call is a span tagged with the op
// and boundary, kept in memory and written out when the run ends.

// perLayer names every per-layer metric with its unit. A run reports all
// of them; a layer that does no work in a workload reports 0.
var perLayer = []struct{ name, unit string }{
	{"tcp.self_us", "us"},
	{"server.self_us", "us"},
	{"server.allocs_per_op", "count"},
	{"server.not_modified_ratio", "fraction"},
	{"jsonenc.encode_us", "us"},
	{"jsonenc.bytes_per_op", "B"},
	{"catalog.call_us", "us"},
	{"catalog.self_us", "us"},
	{"catalog.allocs_per_op", "count"},
	{"privilege.check_us", "us"},
	{"privilege.builds_per_op", "count"},
	{"privilege.hit_ratio", "fraction"},
	{"erm.decode_us", "us"},
	{"cache.gets_per_op", "count"},
	{"cache.hit_ratio", "fraction"},
	{"cache.evictions_per_op", "count"},
	{"cache.coalesced_per_op", "count"},
	{"cache.get_us", "us"},
	{"store.reads_per_op", "count"},
	{"store.get_us", "us"},
	{"store.scan_us", "us"},
	{"store.commit_p50_us", "us"},
	{"store.commit_p99_us", "us"},
	{"store.conflicts_per_commit", "count"},
	{"store.wal_syncs_per_write", "count"},
	{"store.wal_batch_avg", "count"},
	{"store.wal_bytes_per_write", "B"},
	{"events.published_per_write", "count"},
	{"audit.records_per_op", "count"},
	{"txn.commit_us", "us"},
	{"txn.attempts_per_commit", "count"},
	{"txn.conflicts_per_commit", "count"},
	{"cloudsim.object_ops_per_commit", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"loadgen.late_p99_us", "us"},
	{"trace.overhead_frac", "fraction"},
}

// span is one timed call at one boundary of one sampled op.
type span struct {
	Op       string `json:"op"` // connection/sequence
	Kind     string `json:"kind"`
	Boundary string `json:"boundary"`
	StartNs  int64  `json:"start_ns"` // since the traced phase began
	EndNs    int64  `json:"end_ns"`
}

// tracer collects spans and per-boundary durations (µs) for one run.
type tracer struct {
	every int64
	t0    time.Time
	mu    sync.Mutex
	spans []span
	durs  map[string][]float64
	ops   []probedOp // kept for the allocation pass
}

type probedOp struct {
	c *restConn
	o op
}

func newTracer(every int64) *tracer {
	return &tracer{every: every, t0: time.Now(), durs: map[string][]float64{}}
}

// timed runs fn as one span and returns its duration in µs.
func (t *tracer) timed(id, kind, boundary string, fn func()) float64 {
	s := time.Now()
	fn()
	e := time.Now()
	d := float64(e.Sub(s).Nanoseconds()) / 1e3
	t.mu.Lock()
	t.spans = append(t.spans, span{Op: id, Kind: kind, Boundary: boundary,
		StartNs: s.Sub(t.t0).Nanoseconds(), EndNs: e.Sub(t.t0).Nanoseconds()})
	t.durs[boundary] = append(t.durs[boundary], d)
	t.mu.Unlock()
	return d
}

func (t *tracer) derived(name string, v float64) {
	t.mu.Lock()
	t.durs[name] = append(t.durs[name], v)
	t.mu.Unlock()
}

// probe runs one sampled op at every boundary in turn. The TCP call is the
// checked op itself; the in-process calls repeat it.
func (t *tracer) probe(c *restConn, o op) error {
	id := fmt.Sprintf("c%d/%d", c.id, c.n)
	kind := opNames[o.kind]
	var err error
	c.probing = true
	tcp := t.timed(id, kind, "tcp", func() { err = c.do(o) })
	c.probing = false
	if err != nil {
		return err
	}
	req, err := c.httpRequest(o)
	if err != nil {
		return err
	}
	rec := newRecorder()
	httpD := t.timed(id, kind, "server", func() { c.w.srv.ServeHTTP(rec, req) })
	var (
		result any
		svcErr error
	)
	svcD := t.timed(id, kind, "catalog", func() { result, svcErr = c.callService(o) })
	encD := 0.0
	if svcErr == nil {
		buf := jsonenc.Get()
		encD = t.timed(id, kind, "jsonenc", func() { buf.B = encodeResult(buf.B[:0], result) })
		t.derived("jsonenc.bytes", float64(len(buf.B)))
		jsonenc.Put(buf)
	}
	t.derived("tcp.self", tcp-httpD)
	t.derived("server.self", httpD-svcD-encD)
	own, parent := c.record(o, result)
	below := t.layerProbe(id, kind, c.w.svc, c.w.db, c.ctx(o), own, parent)
	t.derived("catalog.self", svcD-below)
	t.mu.Lock()
	if len(t.ops) < 200 {
		t.ops = append(t.ops, probedOp{c: c, o: o})
	}
	t.mu.Unlock()
	return nil
}

// layerProbe times the public functions of the layers beneath the service
// on one record: a cache view read, its decode, a store snapshot read (and
// a range scan of its children when scanParent is set), and an
// authorization check. It returns the cache, decode and authorization
// time, the part of a service call those layers account for.
func (t *tracer) layerProbe(id, kind string, svc *catalog.Service, db *store.DB, ctx catalog.Ctx, rec *erm.Entity, scanParent ids.ID) float64 {
	if rec == nil {
		return 0
	}
	view, err := svc.Cache().NewView(msID)
	if err != nil {
		return 0
	}
	var raw []byte
	cacheD := t.timed(id, kind, "cache.get", func() { raw, _ = view.Get(erm.TableEntity, string(rec.ID)) })
	view.Close()
	decD := t.timed(id, kind, "erm.decode", func() { erm.DecodeEntity(raw) })
	if snap, err := db.Snapshot(msID); err == nil {
		t.timed(id, kind, "store.get", func() { snap.Get(erm.TableEntity, string(rec.ID)) })
		if scanParent != ids.Nil {
			start := erm.ChildPrefix(scanParent, erm.TypeTable)
			t.timed(id, kind, "store.scan", func() { snap.ScanRange(erm.TableChild, start, store.PrefixEnd(start), pageSize) })
		}
		snap.Close()
	}
	priv := readPrivilege(svc, rec.Type)
	authD := t.timed(id, kind, "privilege.check", func() { svc.AuthorizeBatch(ctx, []ids.ID{rec.ID}, priv) })
	return cacheD + decD + authD
}

// record picks the op's own record: the target asset, or for a listing the
// schema listed (and its ID as the scan parent), or a query's first hit.
func (c *restConn) record(o op, result any) (*erm.Entity, ids.ID) {
	admin := adminCtx()
	switch o.kind {
	case opList, opPage:
		e, err := c.w.svc.GetAsset(admin, o.schema)
		if err != nil {
			return nil, ids.Nil
		}
		return e, e.ID
	case opQueryTag:
		if p, ok := result.(*catalog.Page); ok && len(p.Assets) > 0 {
			return p.Assets[0], ids.Nil
		}
		return nil, ids.Nil
	}
	if len(o.assets) == 0 {
		return nil, ids.Nil
	}
	e, err := c.w.svc.GetAsset(admin, c.m.assets[o.assets[0]].full)
	if err != nil {
		return nil, ids.Nil
	}
	return e, ids.Nil
}

func readPrivilege(svc *catalog.Service, t erm.SecurableType) privilege.Privilege {
	if man, ok := svc.Registry().Manifest(t); ok && man.ReadPrivilege != "" {
		return man.ReadPrivilege
	}
	return privilege.Select
}

func (c *restConn) ctx(o op) catalog.Ctx {
	return catalog.Ctx{Principal: privilege.Principal(c.m.principals[o.p].name), Metastore: msID,
		Workspace: o.ws, TrustedEngine: true}
}

// callService makes op o's catalog.Service call directly.
func (c *restConn) callService(o op) (any, error) {
	svc, ctx, m := c.w.svc, c.ctx(o), c.m
	switch o.kind {
	case opResolve:
		return svc.Resolve(ctx, catalog.ResolveRequest{Names: c.names(o), WithCredentials: true})
	case opGet:
		return svc.GetAsset(ctx, m.assets[o.assets[0]].full)
	case opCredPath:
		tc, err := svc.TempCredentialForPath(ctx, credPath(m.assets[o.assets[0]].storage), cloudsim.AccessRead)
		return &tc, err
	case opList, opPage:
		return svc.ListAssetsPage(ctx, o.schema, erm.TypeTable, pageSize, o.token)
	case opQueryTag:
		return svc.QueryAssetsPage(ctx, catalog.Filter{TagKey: "domain", TagValue: o.tag, MaxResults: pageSize})
	}
	return nil, fmt.Errorf("no service call for %s", opNames[o.kind])
}

// encodeResult appends the response body the server would write.
func encodeResult(dst []byte, v any) []byte {
	switch r := v.(type) {
	case *catalog.ResolveResponse:
		return jsonenc.AppendResolveResponse(dst, r)
	case *erm.Entity:
		return jsonenc.AppendEntity(dst, r)
	case *catalog.TempCredential:
		return jsonenc.AppendTempCredential(dst, r)
	case *catalog.Page:
		dst = append(dst, `{"assets":[`...)
		for i, e := range r.Assets {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonenc.AppendEntity(dst, e)
		}
		dst = append(dst, ']')
		if r.NextPageToken != "" {
			dst = append(dst, `,"nextPageToken":`...)
			dst = jsonenc.AppendString(dst, r.NextPageToken)
		}
		return append(dst, '}')
	}
	return dst
}

// recorder is a minimal in-process http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	n      int
}

func newRecorder() *recorder                    { return &recorder{hdr: http.Header{}} }
func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.status = code }
func (r *recorder) Write(p []byte) (int, error) { r.n += len(p); return len(p), nil }

// allocs measures, with the load stopped, the exact heap allocations of a
// sample of probed ops: the whole ServeHTTP, and the service call alone.
func (t *tracer) allocs() (server, svc float64) {
	var ms0, ms1 runtime.MemStats
	var totHTTP, totSvc float64
	for _, p := range t.ops {
		req, err := p.c.httpRequest(p.o)
		if err != nil {
			continue
		}
		rec := newRecorder()
		runtime.ReadMemStats(&ms0)
		p.c.w.srv.ServeHTTP(rec, req)
		runtime.ReadMemStats(&ms1)
		totHTTP += float64(ms1.Mallocs - ms0.Mallocs)
		runtime.ReadMemStats(&ms0)
		p.c.callService(p.o)
		runtime.ReadMemStats(&ms1)
		totSvc += float64(ms1.Mallocs - ms0.Mallocs)
	}
	n := float64(max(len(t.ops), 1))
	return (totHTTP - totSvc) / n, totSvc / n
}

// writeSpans writes the spans of a traced run under .bench_build.
func (t *tracer) writeSpans(dir, name string, seed int64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("e2ebench-spans-%s-seed%d.json", name, seed))
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// counters is a snapshot of the program's own counters, and of the load
// generator's where the program keeps none, read around a phase.
type counters struct {
	rt          rtCounters
	cache       cache.Metrics
	authz       privilege.SnapshotCacheMetrics
	reads       int64
	commit      store.CommitStats
	commitHist  histogram
	wal         store.WALStats
	walBytes    int64
	published   int64
	audit       int64
	cloudOps    int64
	notModified int64       // 304 answers the connections received
	txn         commitStats // the commit writers' tally
}

func readCounters(svc *catalog.Service, db *store.DB, walPath string) counters {
	c := counters{
		rt: readRuntime(), cache: svc.CacheMetrics(), authz: svc.AuthzMetrics(),
		reads: db.ReadCount(), commit: db.CommitStats(), commitHist: commitHistogram(db), wal: db.WALStats(),
		published: svc.Bus().Published(), audit: svc.Audit().Stats().Total,
	}
	if walPath != "" {
		if fi, err := os.Stat(walPath); err == nil {
			c.walBytes = fi.Size()
		}
	}
	g, p, l, d := svc.Cloud().Stats()
	c.cloudOps = g + p + l + d
	return c
}

// commitMetric is the store's commit latency histogram as its metrics
// exposition names it.
const commitMetric = "uc_store_commit_seconds_bucket"

// histogram is one reading of a cumulative latency histogram: each
// bucket's upper bound in seconds and the count at or below it.
type histogram struct{ bounds, counts []float64 }

// commitHistogram reads the store's commit latency histogram through its
// Prometheus exposition, so a phase can take the difference of two
// readings and see only its own commits.
func commitHistogram(db *store.DB) histogram {
	r := obs.NewRegistry()
	db.RegisterMetrics(r)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	var h histogram
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, commitMetric+`{le="`)
		if !ok {
			continue
		}
		le, val, _ := strings.Cut(rest, `"} `)
		val, _, _ = strings.Cut(val, " ") // drop an exemplar
		b, err1 := strconv.ParseFloat(le, 64)
		n, err2 := strconv.ParseFloat(val, 64)
		if err1 == nil && err2 == nil {
			h.bounds, h.counts = append(h.bounds, b), append(h.counts, n)
		}
	}
	return h
}

// quantileSince is the q-quantile, in µs, of the observations between
// reading a and reading h, interpolated within its bucket as the
// histogram itself does (an overflow bucket spans twice its lower bound);
// 0 without observations.
func (h histogram) quantileSince(a histogram, q float64) float64 {
	n := len(h.counts)
	if n == 0 || len(a.counts) != n {
		return 0
	}
	rank := q * (h.counts[n-1] - a.counts[n-1])
	if rank <= 0 {
		return 0
	}
	lo, below := 0.0, 0.0
	for i := range h.counts {
		cum := h.counts[i] - a.counts[i]
		if cum >= rank && cum > below {
			hi := h.bounds[i]
			if math.IsInf(hi, 1) {
				hi = 2 * lo
			}
			return (lo + (rank-below)/(cum-below)*(hi-lo)) * 1e6
		}
		lo, below = h.bounds[i], cum
	}
	return lo * 1e6
}

// counterMetrics turns the counter deltas over a phase into per-op
// figures.
func counterMetrics(res *result, a, b counters, p *phase) {
	ops, writes := float64(p.ok+p.failed), float64(p.count(true))
	per := func(x float64) float64 { return ratio(x, ops) }
	perW := func(x float64) float64 { return ratio(x, writes) }
	gets := float64(b.cache.Hits + b.cache.Misses - a.cache.Hits - a.cache.Misses)
	res.set("cache.gets_per_op", "count", per(gets))
	res.set("cache.hit_ratio", "fraction", ratio(float64(b.cache.Hits-a.cache.Hits), gets))
	res.set("cache.evictions_per_op", "count", per(float64(b.cache.Evictions-a.cache.Evictions)))
	res.set("cache.coalesced_per_op", "count", per(float64(b.cache.CoalescedMisses-a.cache.CoalescedMisses)))
	lookups := float64(b.authz.Hits + b.authz.Misses - a.authz.Hits - a.authz.Misses)
	res.set("privilege.builds_per_op", "count", per(float64(b.authz.Builds-a.authz.Builds)))
	res.set("privilege.hit_ratio", "fraction", ratio(float64(b.authz.Hits-a.authz.Hits), lookups))
	res.set("store.reads_per_op", "count", per(float64(b.reads-a.reads)))
	res.set("store.commit_p50_us", "us", b.commitHist.quantileSince(a.commitHist, 0.50))
	res.set("store.commit_p99_us", "us", b.commitHist.quantileSince(a.commitHist, 0.99))
	res.set("store.conflicts_per_commit", "count",
		ratio(float64(b.commit.Conflicts-a.commit.Conflicts), float64(b.commit.Commits-a.commit.Commits)))
	res.set("store.wal_syncs_per_write", "count", perW(float64(b.wal.Syncs-a.wal.Syncs)))
	res.set("store.wal_batch_avg", "count", ratio(float64(b.wal.Entries-a.wal.Entries), float64(b.wal.Batches-a.wal.Batches)))
	res.set("store.wal_bytes_per_write", "B", perW(float64(b.walBytes-a.walBytes)))
	res.set("events.published_per_write", "count", perW(float64(b.published-a.published)))
	res.set("audit.records_per_op", "count", per(float64(b.audit-a.audit)))
	res.set("runtime.allocs_per_op", "count", per(float64(b.rt.mallocs-a.rt.mallocs)))
	res.set("runtime.alloc_bytes_per_op", "B", per(float64(b.rt.bytes-a.rt.bytes)))
	res.set("runtime.gc_cpu_frac", "fraction", ratio(b.rt.gcCPU-a.rt.gcCPU, b.rt.allCPU-a.rt.allCPU))
	res.set("server.not_modified_ratio", "fraction", per(float64(b.notModified-a.notModified)))
	commits := float64(b.txn.commits - a.txn.commits)
	res.set("txn.attempts_per_commit", "count", ratio(float64(b.txn.attempts-a.txn.attempts), commits))
	res.set("txn.conflicts_per_commit", "count", ratio(float64(b.txn.conflicts-a.txn.conflicts), commits))
	res.set("cloudsim.object_ops_per_commit", "count", ratio(float64(b.cloudOps-a.cloudOps), commits))
}

// traceTarget is what a workload gives the traced run.
type traceTarget interface {
	workers() []worker
	reseed(seed, phase int64)
	// counters reads the program's counters and the generator's tallies.
	counters() counters
	// attach makes the workers probe their sampled ops with tr; nil stops
	// it.
	attach(tr *tracer)
	// allocs reports the exact allocations of the probed ops, with the
	// load stopped.
	allocs(res *result)
	// verify reads back every acknowledged write.
	verify() *phase
}

// traceRun is the --trace 1 run: an untraced closed loop with the
// program's counters read around it, an untraced open loop for the
// generator's lateness, then the same closed loop traced, probing every
// every-th op. A per-layer metric the workload does not exercise reports 0.
func traceRun(sp spec, every int64, t traceTarget, res *result, opt options, warmup *phase) *result {
	third := time.Duration(opt.seconds * float64(time.Second) / 3)
	ws := t.workers()
	before := t.counters()
	t.reseed(opt.seed, 1)
	closed := closedLoop(ws, third)
	counterMetrics(res, before, t.counters(), closed)

	t.reseed(opt.seed, 2)
	open := openLoop(ws, sp.OfferedRate, third)
	res.set("loadgen.late_p99_us", "us", quantile(open.late, 0.99))

	tr := newTracer(every)
	t.attach(tr)
	t.reseed(opt.seed, 1)
	traced := closedLoop(ws, third)
	t.attach(nil)
	untracedRate := float64(closed.ok) / closed.elapsed.Seconds()
	tracedRate := float64(traced.ok) / traced.elapsed.Seconds()
	res.set("trace.overhead_frac", "fraction", 1-ratio(tracedRate, untracedRate))
	res.extra("trace.untraced_ops_s", "ops/s", untracedRate)
	res.extra("trace.traced_ops_s", "ops/s", tracedRate)
	tr.boundaryMetrics(res)
	t.allocs(res)
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			res.set(m.name, m.unit, 0)
		}
	}
	if path, err := tr.writeSpans(opt.spansDir, sp.Name, opt.seed); err == nil {
		res.extra("trace.spans", "count", float64(len(tr.spans)))
		fmt.Fprintln(os.Stderr, "spans written to", path)
	}
	finish(res, warmup, closed, open, traced, readBackCount(res, t.verify()))
	return res
}

// boundaryMetrics reports the medians of the traced boundaries.
func (t *tracer) boundaryMetrics(res *result) {
	md := func(k string) float64 { return median(t.durs[k]) }
	res.set("tcp.self_us", "us", md("tcp.self"))
	res.set("server.self_us", "us", md("server.self"))
	res.set("jsonenc.encode_us", "us", md("jsonenc"))
	res.set("jsonenc.bytes_per_op", "B", mean(t.durs["jsonenc.bytes"]))
	res.set("catalog.call_us", "us", md("catalog"))
	res.set("catalog.self_us", "us", md("catalog.self"))
	res.set("privilege.check_us", "us", md("privilege.check"))
	res.set("erm.decode_us", "us", md("erm.decode"))
	res.set("cache.get_us", "us", md("cache.get"))
	res.set("store.get_us", "us", md("store.get"))
	res.set("store.scan_us", "us", md("store.scan"))
	res.set("txn.commit_us", "us", md("txn.commit"))
	res.extra("trace.sampled_ops", "count", float64(len(t.durs["catalog"])))
}
