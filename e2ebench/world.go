package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"unitycatalog/internal/cache"
	"unitycatalog/internal/catalog"
	"unitycatalog/internal/erm"
	"unitycatalog/internal/ids"
	"unitycatalog/internal/privilege"
	"unitycatalog/internal/server"
	"unitycatalog/internal/store"
	"unitycatalog/internal/workload"
)

const (
	msID      = "ms1"
	apiPrefix = "/api/2.1/unity-catalog"
	// pipelineGroup holds the writer principals of governed_writes; it
	// has MANAGE, MODIFY and CREATE TABLE on every catalog.
	pipelineGroup = "pipelines"
	// toggleGrantee receives the per-asset SELECT grants that writers
	// toggle. No reader belongs to it, so toggles never change a read's
	// expected outcome, only the metastore version.
	toggleGrantee = "stewards"
	// outCatalog/outSchema hold the tables writers create; readers never
	// list it, so its growth does not change any expected listing.
	outCatalog = "pipeline_out"
	outSchema  = "pipeline_out.landing"
)

// The world and its access model are the same on every REST workload.
// worldSeed generates the population, the access model and the popularity
// order, so runs on different --seed values measure one world under
// different request streams. There are numPrincipals trusted-engine
// principals, each in 2 of numGroups groups and calling from one of
// numWorkspaces workspaces; deniedPairs of the (group, catalog) pairs have
// no grants, and boundCatalogs of the catalogs are bound to all
// workspaces but one.
const (
	worldSeed     = 1
	numPrincipals = 16
	numGroups     = 8
	numWorkspaces = 3
	deniedPairs   = 0.25
	boundCatalogs = 0.33
)

// readPrivs are granted on a catalog to each allowed group, with USE
// SCHEMA on each of its schemas; they inherit to every leaf, so an allowed
// principal sees the whole catalog.
var readPrivs = []privilege.Privilege{
	privilege.UseCatalog, privilege.Select, privilege.ReadVolume, privilege.Execute,
}

var writePrivs = []privilege.Privilege{
	privilege.UseCatalog, privilege.Select, privilege.Modify, privilege.Manage,
}

// asset is one securable the traffic may name.
type asset struct {
	full    string
	cat     int // index into model.catalogs
	typ     erm.SecurableType
	storage string // storage path of storage-backed assets
	// resolvable marks plain managed tables: resolving them returns
	// exactly the requested name, with one credential.
	resolvable bool
}

// principal is one reader identity of the access model: an engine that
// runs in one home workspace.
type principal struct {
	name   string
	groups []int
	ws     string
}

// model is the generator's own record of the world: what exists and who
// may see it. Every outcome the benchmark observes is checked against it.
type model struct {
	catalogs   []string
	bindings   [][]string // per catalog; nil means unbound
	allow      [][]bool   // [group][catalog]
	principals []principal
	workspaces []string
	assets     []asset          // every readable securable, in popularity order
	storage    []int            // indices of assets with storage, popularity order
	resolvable []int            // indices of resolvable tables, popularity order
	schemas    []string         // schemas that have tables
	allSchemas [][]string       // per catalog, every schema
	tables     map[string][]int // schema full name -> table asset indices
	index      map[string]int   // full name -> asset index
	tagValues  []string
	tagged     map[string][]string // tag value -> tagged table full names
	writers    []string            // pipeline principals, one per connection
}

func (m *model) catOf(full string) int {
	name := full
	if i := strings.IndexByte(full, '.'); i >= 0 {
		name = full[:i]
	}
	i := sort.SearchStrings(m.catalogs, name)
	if i < len(m.catalogs) && m.catalogs[i] == name {
		return i
	}
	return -1
}

// canRead reports whether principal p, calling from workspace ws, may read
// securables in catalog c: one of its groups holds the catalog grants, and
// the catalog is unbound or bound to ws.
func (m *model) canRead(p, c int, ws string) bool {
	if b := m.bindings[c]; b != nil {
		ok := false
		for _, w := range b {
			ok = ok || w == ws
		}
		if !ok {
			return false
		}
	}
	for _, g := range m.principals[p].groups {
		if m.allow[g][c] {
			return true
		}
	}
	return false
}

// world is one built REST stack: store, catalog service, HTTP server on a
// loopback listener, and the model it was built from.
type world struct {
	sp      spec
	walPath string
	db      *store.DB
	svc     *catalog.Service
	dirGrp  *catalog.Directory
	srv     *server.Server
	hs      *http.Server
	served  chan struct{} // closed when the HTTP server's Serve returns
	base    string
	m       *model
	admin   catalog.Ctx
}

func adminCtx() catalog.Ctx {
	return catalog.Ctx{Principal: "admin", Metastore: msID, TrustedEngine: true}
}

// reopens reports whether the world is populated into a WAL without
// fsync or injected latency and then reopened from it with both applied;
// the replay is part of set-up time.
func (sp spec) reopens() bool { return sp.World == "large" || sp.Fsync == "batch" }

// storeOptions configures the store for populating (final false) or for
// the measured run (final true).
func (sp spec) storeOptions(walPath string, final bool) store.Options {
	o := store.Options{}
	if sp.reopens() {
		o.WALPath = walPath
		o.Sync = store.SyncNever
	}
	if final {
		o.Sync = store.SyncBatch
		o.ReadLatency = time.Duration(sp.ReadLatencyUS) * time.Microsecond
	}
	return o
}

// newService builds a catalog service over db with the workload's cache
// cap and the model's group directory.
func (w *world) newService(db *store.DB) error {
	svc, err := catalog.New(catalog.Config{
		DB:        db,
		CacheOpts: cache.Options{MaxEntriesPerMetastore: w.sp.CacheCap},
		Groups:    w.dirGrp,
	})
	if err != nil {
		return err
	}
	w.db, w.svc = db, svc
	return nil
}

// buildWorld builds the workload's world from the seed and starts serving
// it on a loopback port.
func buildWorld(sp spec, seed int64, dir string) (*world, error) {
	w := &world{sp: sp, walPath: filepath.Join(dir, "meta.wal"), admin: adminCtx()}
	m := newAccessModel(sp, seed)
	w.m = m
	w.dirGrp = catalog.NewDirectory(time.Hour)
	for _, p := range m.principals {
		for _, g := range p.groups {
			w.dirGrp.AddMember(privilege.Principal(groupName(g)), privilege.Principal(p.name))
		}
	}
	for _, p := range m.writers {
		w.dirGrp.AddMember(pipelineGroup, privilege.Principal(p))
	}
	db, err := store.Open(sp.storeOptions(w.walPath, !sp.reopens()))
	if err != nil {
		return nil, err
	}
	if err := w.newService(db); err != nil {
		db.Close()
		return nil, err
	}
	if err := w.populate(seed); err != nil {
		db.Close()
		return nil, err
	}
	if sp.reopens() {
		if err := db.Close(); err != nil {
			return nil, err
		}
		if db, err = store.Open(sp.storeOptions(w.walPath, true)); err != nil {
			return nil, err
		}
		if err := w.newService(db); err != nil {
			db.Close()
			return nil, err
		}
		if _, err := w.svc.OpenMetastore(msID); err != nil {
			db.Close()
			return nil, err
		}
	}
	if err := w.serve(); err != nil {
		w.db.Close()
		return nil, err
	}
	return w, nil
}

func groupName(g int) string { return fmt.Sprintf("grp%02d", g) }

// newAccessModel draws principals, groups, grants and workspace bindings;
// catalogs and assets are filled in by populate.
func newAccessModel(sp spec, seed int64) *model {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	m := &model{tables: map[string][]int{}, tagged: map[string][]string{}}
	for i := 0; i < numWorkspaces; i++ {
		m.workspaces = append(m.workspaces, fmt.Sprintf("ws%d", i))
	}
	for i := 0; i < numPrincipals; i++ {
		g1 := r.Intn(numGroups)
		g2 := (g1 + 1 + r.Intn(numGroups-1)) % numGroups
		m.principals = append(m.principals, principal{name: fmt.Sprintf("eng%02d", i), groups: []int{g1, g2},
			ws: m.workspaces[i%len(m.workspaces)]})
	}
	if sp.Mix["write"] > 0 {
		m.writers = []string{"pipe0", "pipe1"}
	}
	return m
}

// drawAccess decides grants and bindings once the catalogs are known.
func (m *model) drawAccess(seed int64) {
	r := rand.New(rand.NewSource(seed ^ 0xacce55))
	m.allow = make([][]bool, numGroups)
	for g := range m.allow {
		m.allow[g] = make([]bool, len(m.catalogs))
		for c := range m.catalogs {
			m.allow[g][c] = r.Float64() >= deniedPairs
		}
	}
	m.bindings = make([][]string, len(m.catalogs))
	for c := range m.catalogs {
		if r.Float64() < boundCatalogs {
			perm := r.Perm(len(m.workspaces))
			for _, i := range perm[:len(perm)-1] {
				m.bindings[c] = append(m.bindings[c], m.workspaces[i])
			}
		}
	}
}

// populate creates the catalogs and assets, then the grants and bindings
// the model drew.
func (w *world) populate(seed int64) error {
	svc, admin, m := w.svc, w.admin, w.m
	if _, err := svc.CreateMetastore(msID, "bench", "region-1", "admin", "s3://root/"+msID); err != nil {
		return err
	}
	switch w.sp.World {
	case "section61":
		pop, err := workload.Generate(svc, admin, workload.PopulationSpec{Seed: seed})
		if err != nil {
			return fmt.Errorf("populate: %w", err)
		}
		m.catalogs = append(m.catalogs, pop.Catalogs...)
		sort.Strings(m.catalogs)
		for _, a := range pop.Assets {
			// The generator records functions under a name it does not
			// create, so they are left out of the traffic.
			if a.Type == erm.TypeFunction {
				continue
			}
			as := asset{full: a.FullName, cat: m.catOf(a.FullName), typ: a.Type, storage: a.StoragePath}
			as.resolvable = a.Type == erm.TypeTable && a.TableType == catalog.TableManaged && a.StoragePath != ""
			m.assets = append(m.assets, as)
		}
	case "large":
		if err := w.populateLarge(seed); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown world %q", w.sp.World)
	}
	// Popularity order is a seeded shuffle, so the Zipf head is spread
	// over catalogs rather than pinned to the first ones created.
	r := rand.New(rand.NewSource(seed ^ 0x9091))
	r.Shuffle(len(m.assets), func(i, j int) { m.assets[i], m.assets[j] = m.assets[j], m.assets[i] })
	m.index = make(map[string]int, len(m.assets))
	for i, a := range m.assets {
		m.index[a.full] = i
		if a.storage != "" && a.typ == erm.TypeTable {
			m.storage = append(m.storage, i)
		}
		if a.resolvable {
			m.resolvable = append(m.resolvable, i)
		}
		if a.typ == erm.TypeTable {
			m.tables[parentOf(a.full)] = append(m.tables[parentOf(a.full)], i)
		}
	}
	for s := range m.tables {
		m.schemas = append(m.schemas, s)
	}
	sort.Strings(m.schemas)

	m.allSchemas = make([][]string, len(m.catalogs))
	for _, a := range m.assets {
		if a.typ == erm.TypeSchema {
			m.allSchemas[a.cat] = append(m.allSchemas[a.cat], a.full)
		}
	}
	m.drawAccess(seed)
	grant := func(full string, to string, privs ...privilege.Privilege) error {
		for _, p := range privs {
			if err := svc.Grant(admin, full, privilege.Principal(to), p); err != nil {
				return fmt.Errorf("grant %s on %s: %w", p, full, err)
			}
		}
		return nil
	}
	for c, cat := range m.catalogs {
		for g := range m.allow {
			if !m.allow[g][c] {
				continue
			}
			if err := grant(cat, groupName(g), readPrivs...); err != nil {
				return err
			}
			for _, sch := range m.allSchemas[c] {
				if err := grant(sch, groupName(g), privilege.UseSchema); err != nil {
					return err
				}
			}
		}
		if m.bindings[c] != nil {
			if err := svc.SetWorkspaceBindings(admin, cat, m.bindings[c]); err != nil {
				return err
			}
		}
	}
	if len(m.writers) > 0 {
		if _, err := svc.CreateCatalog(admin, outCatalog, ""); err != nil {
			return err
		}
		if _, err := svc.CreateSchema(admin, outCatalog, "landing", ""); err != nil {
			return err
		}
		for c, cat := range m.catalogs {
			if err := grant(cat, pipelineGroup, writePrivs...); err != nil {
				return err
			}
			for _, sch := range m.allSchemas[c] {
				if err := grant(sch, pipelineGroup, privilege.UseSchema); err != nil {
					return err
				}
			}
		}
		if err := grant(outCatalog, pipelineGroup, writePrivs...); err != nil {
			return err
		}
		if err := grant(outSchema, pipelineGroup, privilege.UseSchema, privilege.CreateTable); err != nil {
			return err
		}
	}
	return nil
}

// populateLarge builds a flat metastore of LargeTables tables in
// LargeSchemas schemas spread over a few catalogs, committing table
// entities in batches straight through erm.PutEntity (the API path is
// superlinear at this size). Tagged tables carry one "domain" tag in both
// the forward tag table and the inverted index.
func (w *world) populateLarge(seed int64) error {
	svc, admin, m, sp := w.svc, w.admin, w.m, w.sp
	r := rand.New(rand.NewSource(seed ^ 0x1a4e))
	const catalogs = 6
	for c := 0; c < catalogs; c++ {
		m.catalogs = append(m.catalogs, fmt.Sprintf("dept%02d", c))
	}
	for v := 0; v < 8; v++ {
		m.tagValues = append(m.tagValues, fmt.Sprintf("d%d", v))
	}
	perSchema := sp.LargeTables / sp.LargeSchemas
	tagEvery := sp.LargeTables / max(sp.Tagged, 1)
	now := time.Now().UTC()
	n := 0
	for s := 0; s < sp.LargeSchemas; s++ {
		c := s % catalogs
		cat := m.catalogs[c]
		if s < catalogs {
			if _, err := svc.CreateCatalog(admin, cat, ""); err != nil {
				return err
			}
		}
		schema := fmt.Sprintf("s%03d", s)
		parent, err := svc.CreateSchema(admin, cat, schema, "")
		if err != nil {
			return err
		}
		m.assets = append(m.assets, asset{full: parent.FullName, cat: c, typ: erm.TypeSchema})
		_, err = w.db.Update(msID, func(tx *store.Tx) error {
			for i := 0; i < perSchema; i++ {
				full := fmt.Sprintf("%s.%s.t%05d", cat, schema, i)
				e := &erm.Entity{
					ID: ids.New(), Type: erm.TypeTable, Name: full[strings.LastIndexByte(full, '.')+1:],
					ParentID: parent.ID, FullName: full, Owner: "admin", State: erm.StateActive,
					CreatedAt: now, UpdatedAt: now,
				}
				if err := erm.PutEntity(tx, e, "RELATION"); err != nil {
					return err
				}
				m.assets = append(m.assets, asset{full: full, cat: c, typ: erm.TypeTable})
				if n%tagEvery == 0 {
					v := m.tagValues[r.Intn(len(m.tagValues))]
					tx.Put(erm.TableTag, erm.TagKey(e.ID, "domain"), []byte(v))
					tx.Put(erm.TableTagIdx, erm.TagIdxKey("domain", e.ID, ""), []byte(v))
					m.tagged[v] = append(m.tagged[v], full)
				}
				n++
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("populate %s.%s: %w", cat, schema, err)
		}
	}
	return nil
}

// serve starts the HTTP server over the service with production defaults
// and registers every reader as a trusted engine.
func (w *world) serve() error {
	w.srv = server.NewWithConfig(w.svc, server.Config{})
	for _, p := range w.m.principals {
		w.srv.TrustEngine(privilege.Principal(p.name))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String() + apiPrefix
	w.hs = &http.Server{Handler: w.srv, ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return nil
}

// stopServing shuts the HTTP server and the server's consumers down,
// leaving the store open.
func (w *world) stopServing() {
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		w.hs.Shutdown(ctx)
		cancel()
		<-w.served
		w.hs = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv.Lineage.Close()
		w.srv.Search.Close()
		w.srv = nil
	}
}

// close stops serving and closes the store.
func (w *world) close() error {
	w.stopServing()
	if w.db == nil {
		return nil
	}
	err := w.db.Close()
	w.db = nil
	return err
}
