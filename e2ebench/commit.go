package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"unitycatalog/internal/catalog"
	"unitycatalog/internal/cloudsim"
	"unitycatalog/internal/delta"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/jsonenc"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/store"
	"unitycatalog/internal/txn"
	"unitycatalog/uc"
)

// The multi_table_commit workload: two writers commit 2-table Delta
// appends through the stack's transaction coordinator, retrying on
// txn.ErrConflict. Each writer has its own disjoint table pairs; one pair
// is shared by both (hot), so commits on it conflict.

const (
	lakeSchema = "lake.events"
	hotA       = lakeSchema + ".hot_a"
	hotB       = lakeSchema + ".hot_b"
)

var deltaCols = []catalog.ColumnInfo{{Name: "writer", Type: "BIGINT"}, {Name: "seq", Type: "BIGINT"}}

// commitWorld is one embedded stack with governed Delta tables.
type commitWorld struct {
	sp      spec
	walPath string
	cat     *uc.Catalog
	coord   *txn.Coordinator
	pairs   [][][2]string     // per writer, its own table pairs
	paths   map[string]string // table full name -> storage path
}

func (w *commitWorld) close() error { return w.cat.Close() }

func buildCommitWorld(sp spec, dir string) (*commitWorld, error) {
	w := &commitWorld{sp: sp, walPath: filepath.Join(dir, "meta.wal"), paths: map[string]string{}}
	cfg := uc.Config{}
	if sp.Fsync == "batch" {
		cfg.WALPath, cfg.WALSync = w.walPath, store.SyncBatch
	}
	cat, err := uc.Open(cfg)
	if err != nil {
		return nil, err
	}
	w.cat = cat
	fail := func(err error) (*commitWorld, error) {
		cat.Close()
		return nil, fmt.Errorf("commit world: %w", err)
	}
	if _, err := cat.CreateMetastore(msID, "bench", "region-1", "admin", "s3://root/"+msID); err != nil {
		return fail(err)
	}
	admin := cat.Session("admin", msID)
	if _, err := admin.CreateCatalog("lake", ""); err != nil {
		return fail(err)
	}
	if _, err := admin.CreateSchema("lake", "events", ""); err != nil {
		return fail(err)
	}
	names := []string{hotA, hotB}
	for wr := 0; wr < connections; wr++ {
		var own [][2]string
		for p := 0; p < sp.Tables/connections/2; p++ {
			a := fmt.Sprintf("%s.w%d_p%d_a", lakeSchema, wr, p)
			b := fmt.Sprintf("%s.w%d_p%d_b", lakeSchema, wr, p)
			own = append(own, [2]string{a, b})
			names = append(names, a, b)
		}
		w.pairs = append(w.pairs, own)
	}
	for _, full := range names {
		e, err := admin.CreateTable(lakeSchema, full[len(lakeSchema)+1:], catalog.TableSpec{Columns: deltaCols}, "")
		if err != nil {
			return fail(err)
		}
		if err := cat.BootstrapDeltaTable(e.StoragePath, deltaCols); err != nil {
			return fail(err)
		}
		w.paths[full] = e.StoragePath
	}
	svc, actx := cat.Service, adminCtx()
	for wr := 0; wr < connections; wr++ {
		for _, g := range []struct {
			on   string
			priv privilege.Privilege
		}{{"lake", privilege.UseCatalog}, {"lake", privilege.Select}, {"lake", privilege.Modify}, {lakeSchema, privilege.UseSchema}} {
			if err := svc.Grant(actx, g.on, writerName(wr), g.priv); err != nil {
				return fail(err)
			}
		}
	}
	w.coord = cat.NewTransactionCoordinator()
	return w, nil
}

func writerName(i int) privilege.Principal { return privilege.Principal(fmt.Sprintf("pipe%d", i)) }

// committer is one writer goroutine's state and its model of what it has
// committed: rows appended per table.
type committer struct {
	id     int
	w      *commitWorld
	ctx    catalog.Ctx
	rng    *rand.Rand
	seq    int64
	rows   map[string]int64
	stats  commitStats
	tr     *commitTracer
	schema delta.Schema
}

type commitStats struct {
	commits, attempts, conflicts int64
}

func newCommitter(w *commitWorld, id int, seed int64) *committer {
	return &committer{
		id: id, w: w, rng: rand.New(rand.NewSource(seed*7919 + int64(id))),
		ctx:    catalog.Ctx{Principal: writerName(id), Metastore: msID, TrustedEngine: true},
		rows:   map[string]int64{},
		schema: delta.Schema{Fields: []delta.SchemaField{{Name: "writer", Type: delta.TypeInt64}, {Name: "seq", Type: delta.TypeInt64}}},
	}
}

func (c *committer) reseed(seed, phase int64) {
	c.rng = rand.New(rand.NewSource(seed*7919 + phase*1_000_003 + int64(c.id)))
}

func (c *committer) pair() [2]string {
	if c.rng.Float64() < c.w.sp.HotShare {
		return [2]string{hotA, hotB}
	}
	own := c.w.pairs[c.id]
	return own[c.rng.Intn(len(own))]
}

// step commits one 2-table append, retrying on conflict until it lands.
func (c *committer) step() (bool, error) {
	pair := c.pair()
	c.seq++
	batch := delta.NewBatch(c.schema)
	batch.AppendRow(int64(c.id), c.seq)
	var t0 time.Time
	if c.tr != nil {
		t0 = time.Now()
	}
	for attempt := 1; ; attempt++ {
		if attempt > 100 {
			return true, fmt.Errorf("commit %v: still conflicting after 100 attempts", pair)
		}
		c.stats.attempts++
		tx, err := c.w.coord.Begin(c.ctx, pair[:])
		if err != nil {
			return true, fmt.Errorf("begin %v: %w", pair, err)
		}
		for _, full := range pair {
			if err := tx.StageAppend(full, batch); err != nil {
				return true, fmt.Errorf("stage %s: %w", full, err)
			}
		}
		err = tx.Commit()
		if errors.Is(err, txn.ErrConflict) {
			c.stats.conflicts++
			continue
		}
		if err != nil {
			return true, fmt.Errorf("commit %v: %w", pair, err)
		}
		c.stats.commits++
		for _, full := range pair {
			c.rows[full]++
			if err := c.checkpoint(full); err != nil {
				return true, err
			}
		}
		if c.tr != nil {
			c.tr.sample(c, pair, t0)
		}
		return true, nil
	}
}

// checkpointEvery is the Delta writers' checkpoint interval, the protocol's
// default: without checkpoints every snapshot replays the whole log.
const checkpointEvery = 10

// checkpoint writes a Delta checkpoint after every checkpointEvery-th
// commit a table receives, as a Delta writer does. Each writer checkpoints
// its own tables; writer 0 also checkpoints the shared pair.
func (c *committer) checkpoint(full string) error {
	if c.rows[full]%checkpointEvery != 0 || ((full == hotA || full == hotB) && c.id != 0) {
		return nil
	}
	t := delta.NewTable(c.w.paths[full], delta.ServiceBlobs{Store: c.w.cat.Cloud})
	snap, err := t.Snapshot()
	if err == nil {
		err = t.Checkpoint(snap)
	}
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", full, err)
	}
	return nil
}

// verify reads every table back through its Delta log: the live row count
// must equal the rows the writers acknowledged.
func (w *commitWorld) verify(cs []*committer) *phase {
	p := &phase{}
	want := map[string]int64{}
	for _, c := range cs {
		for t, n := range c.rows {
			want[t] += n
		}
	}
	admin := adminCtx()
	for full, n := range want {
		e, err := w.cat.Service.GetAsset(admin, full)
		if err == nil {
			var snap *delta.Snapshot
			snap, err = delta.NewTable(e.StoragePath, delta.ServiceBlobs{Store: w.cat.Cloud}).Snapshot()
			if err == nil && snap.NumRecords() != n {
				err = fmt.Errorf("read back %s: %d rows, want %d", full, snap.NumRecords(), n)
			}
		}
		p.record(false, err, 0)
	}
	return p
}

func committersOf(w *commitWorld, seed int64) ([]*committer, []worker) {
	cs := make([]*committer, connections)
	ws := make([]worker, connections)
	for i := range cs {
		cs[i] = newCommitter(w, i, seed)
		ws[i] = cs[i]
	}
	return cs, ws
}

func runCommit(sp spec, opt options) (*result, error) {
	w, setup, err := buildTimed(sp, opt, func(dir string) (*commitWorld, error) {
		return buildCommitWorld(sp, dir)
	})
	if err != nil {
		return nil, err
	}
	defer w.close()
	cs, ws := committersOf(w, opt.seed)
	res := &result{}
	for _, c := range cs {
		c.reseed(0, 0)
	}
	warmup := warm(ws, sp.WarmupOps, nil)
	if opt.trace {
		return traceRun(sp, 4, &commitTrace{w: w, cs: cs, ws: ws}, res, opt, warmup), nil
	}
	closedD, openD := phaseSplit(opt.seconds)
	for _, c := range cs {
		c.reseed(opt.seed, 1)
	}
	open := openLoop(ws, sp.OfferedRate, openD)
	addLatency(res, open)
	measureHeap(res, warmup, open)
	for _, c := range cs {
		c.reseed(opt.seed, 2)
	}
	closed := closedLoop(ws, closedD)
	res.set("setup_s", "s", setup)
	res.set("throughput_ops_s", "ops/s", closed.rate())
	res.extra("closed.cpu_us_per_op", "us", ratio(closed.cpu*1e6, float64(closed.ok)))
	res.extra("closed.steal_frac", "fraction", closed.steal)
	st := sumStats(cs)
	res.extra("txn.commits", "count", float64(st.commits))
	res.extra("txn.conflicts", "count", float64(st.conflicts))
	finish(res, warmup, closed, open, readBackCount(res, w.verify(cs)))
	return res, nil
}

// commitTracer prices sampled commits: the whole commit (Begin to landed
// Commit, with retries), then the coordinator's catalog call on the pair
// (Resolve with credentials, as Begin makes it), its jsonenc encoding, and
// the layers beneath on the first table's record.
type commitTracer struct {
	*tracer
	w     *commitWorld
	pairs []probedPair
}

type probedPair struct {
	ctx  catalog.Ctx
	pair [2]string
}

func (t *commitTracer) sample(c *committer, pair [2]string, t0 time.Time) {
	if c.seq%t.every != 0 {
		return
	}
	id := fmt.Sprintf("c%d/%d", c.id, c.seq)
	svc := t.w.cat.Service
	t.derived("txn.commit", sinceMicros(t0))
	req := catalog.ResolveRequest{Names: pair[:], WithCredentials: true, Access: cloudsim.AccessReadWrite}
	var resp *catalog.ResolveResponse
	svcD := t.timed(id, "commit", "catalog", func() { resp, _ = svc.Resolve(c.ctx, req) })
	if resp == nil || resp.Assets[pair[0]] == nil {
		return
	}
	buf := jsonenc.Get()
	t.timed(id, "commit", "jsonenc", func() { buf.B = jsonenc.AppendResolveResponse(buf.B[:0], resp) })
	t.derived("jsonenc.bytes", float64(len(buf.B)))
	jsonenc.Put(buf)
	below := t.layerProbe(id, "commit", svc, svc.DB(), c.ctx, resp.Assets[pair[0]].Entity, ids.Nil)
	t.derived("catalog.self", svcD-below)
	t.mu.Lock()
	if len(t.pairs) < 200 {
		t.pairs = append(t.pairs, probedPair{ctx: c.ctx, pair: pair})
	}
	t.mu.Unlock()
}

// allocs measures, with the load stopped, the exact heap allocations of
// the sampled pairs' catalog calls.
func (t *commitTracer) allocs() float64 {
	var ms0, ms1 runtime.MemStats
	total := 0.0
	for _, p := range t.pairs {
		runtime.ReadMemStats(&ms0)
		t.w.cat.Service.Resolve(p.ctx, catalog.ResolveRequest{Names: p.pair[:], WithCredentials: true, Access: cloudsim.AccessReadWrite})
		runtime.ReadMemStats(&ms1)
		total += float64(ms1.Mallocs - ms0.Mallocs)
	}
	return ratio(total, float64(len(t.pairs)))
}

func sumStats(cs []*committer) commitStats {
	var st commitStats
	for _, c := range cs {
		st.commits += c.stats.commits
		st.attempts += c.stats.attempts
		st.conflicts += c.stats.conflicts
	}
	return st
}

// commitTrace adapts a commit world and its writers to the traced run.
type commitTrace struct {
	w  *commitWorld
	cs []*committer
	ws []worker
	tr *commitTracer
}

func (t *commitTrace) workers() []worker { return t.ws }
func (t *commitTrace) verify() *phase    { return t.w.verify(t.cs) }

func (t *commitTrace) reseed(seed, phase int64) {
	for _, c := range t.cs {
		c.reseed(seed, phase)
	}
}

func (t *commitTrace) counters() counters {
	svc := t.w.cat.Service
	c := readCounters(svc, svc.DB(), t.w.walPath)
	c.txn = sumStats(t.cs)
	return c
}

func (t *commitTrace) attach(tr *tracer) {
	var ct *commitTracer
	if tr != nil {
		ct = &commitTracer{tracer: tr, w: t.w}
		t.tr = ct
	}
	for _, c := range t.cs {
		c.tr = ct
	}
}

// allocs reports the catalog call's allocations; the commit path is
// embedded, with no HTTP server or TCP hop.
func (t *commitTrace) allocs(res *result) {
	res.set("catalog.allocs_per_op", "count", t.tr.allocs())
}
