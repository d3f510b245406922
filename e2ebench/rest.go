package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"unitycatalog/internal/erm"
)

// Op kinds of the REST workloads. The mix keys in workloads.json name them.
type opKind uint8

const (
	opResolve  opKind = iota // POST /resolve with credentials for 1-3 tables
	opGet                    // GET /assets/{full}
	opCredPath               // POST /temporary-credentials by storage path
	opList                   // GET /assets first page of a schema's tables
	opPage                   // GET /assets page of a browse that follows tokens
	opQueryTag               // POST /query-assets by tag, first page
	opUpdate                 // PATCH /assets/{full} comment
	opGrant                  // POST or DELETE /grants, toggled per asset
	opTag                    // POST /tags
	opCreate                 // POST /tables into the growing schema
	numOpKinds
)

var opNames = [numOpKinds]string{"resolve", "get", "cred_path", "list", "page", "query_tag",
	"update", "grant", "tag", "create"}

func (k opKind) write() bool { return k >= opUpdate }

// writeKinds split the "write" share of the mix evenly.
var writeKinds = []opKind{opUpdate, opGrant, opTag, opCreate}

const pageSize = 50

// zipf samples ranks 0..n-1 with P(k) proportional to 1/(k+1)^s; unlike
// math/rand's generator it accepts s <= 1.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, r.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// op is one generated request.
type op struct {
	kind   opKind
	p      int    // reader principal index
	ws     string // X-UC-Workspace
	assets []int  // target asset indices
	schema string // list / browse target
	token  string // browse page token ("" for a first page)
	tag    string // query-by-tag value
}

// restConn is one load-generating client: one keep-alive connection, its
// own seeded op stream, a validator cache, a browse cursor, and (on
// governed_writes) a writer identity with the model of what it wrote.
type restConn struct {
	id   int
	w    *world
	m    *model
	rng  *rand.Rand
	mix  []float64 // cumulative shares by opKind
	zAll *zipf
	zSto *zipf
	zRes *zipf
	zSch *zipf
	zPri *zipf
	hc   *http.Client
	buf  bytes.Buffer

	etags    map[string]string
	etagRing []string
	etagNext int

	// browse cursor: pages walked so far through one schema's tables
	cur      string
	curP     int
	curWS    string
	curToken string
	curSeen  map[string]bool
	curPages int

	// writer state; targets are this connection's partition of tables
	writer   string
	targets  []int
	comments map[int]string
	granted  map[int]bool
	tagged   map[int]string
	created  []string
	seq      int
	// writesOnly restricts the stream to in-place writes (warm-up of the
	// event bus history).
	writesOnly bool
	// tr, when set, prices every tr.every-th read op at each layer
	// boundary; probing marks such an op (it never revalidates).
	tr      *tracer
	n       int64
	probing bool

	// counts for the report
	byKind      [numOpKinds]int64
	notModified int64
	revalidated int64
	denied      int64
}

const etagCap = 256 // matches client.Client's validator cache bound

func newRestConn(w *world, id int, seed int64, tr *http.Transport) *restConn {
	m, sp := w.m, w.sp
	c := &restConn{
		id: id, w: w, m: m,
		rng:   rand.New(rand.NewSource(seed*7919 + int64(id))),
		hc:    &http.Client{Transport: tr},
		etags: map[string]string{}, etagRing: make([]string, etagCap),
		comments: map[int]string{}, granted: map[int]bool{}, tagged: map[int]string{},
	}
	shares := make([]float64, numOpKinds)
	for k := opKind(0); k < numOpKinds; k++ {
		shares[k] = sp.Mix[opNames[k]]
	}
	for _, k := range writeKinds {
		shares[k] += sp.Mix["write"] / float64(len(writeKinds))
	}
	acc := 0.0
	for k := range shares {
		acc += shares[k]
		c.mix = append(c.mix, acc)
	}
	for k := range c.mix {
		c.mix[k] /= acc
	}
	c.zAll = newZipf(len(m.assets), sp.Zipf)
	if len(m.storage) > 0 {
		c.zSto = newZipf(len(m.storage), sp.Zipf)
	}
	if len(m.resolvable) > 0 {
		c.zRes = newZipf(len(m.resolvable), sp.Zipf)
	}
	c.zSch = newZipf(len(m.schemas), sp.Zipf)
	c.zPri = newZipf(len(m.principals), sp.Zipf)
	if len(m.writers) > 0 {
		c.writer = m.writers[id%len(m.writers)]
		for i, a := range m.assets {
			if a.typ == erm.TypeTable && m.bindings[a.cat] == nil && i%len(m.writers) == id%len(m.writers) {
				c.targets = append(c.targets, i)
			}
		}
	}
	return c
}

func (c *restConn) reseed(seed, phase int64) {
	c.rng = rand.New(rand.NewSource(seed*7919 + phase*1_000_003 + int64(c.id)))
}

func (c *restConn) next() op {
	r, m := c.rng, c.m
	k := opKind(sort.SearchFloat64s(c.mix, r.Float64()))
	if k >= numOpKinds {
		k = numOpKinds - 1
	}
	if c.writesOnly {
		k = writeKinds[r.Intn(len(writeKinds)-1)] // no creates
	}
	o := op{kind: k, p: c.zPri.draw(r)}
	o.ws = m.principals[o.p].ws
	switch k {
	case opResolve:
		n := 1 + r.Intn(3)
		for len(o.assets) < n {
			a := m.resolvable[c.zRes.draw(r)]
			dup := false
			for _, b := range o.assets {
				dup = dup || a == b
			}
			if !dup {
				o.assets = append(o.assets, a)
			}
		}
	case opGet:
		o.assets = []int{c.zAll.draw(r)}
	case opCredPath:
		o.assets = []int{m.storage[c.zSto.draw(r)]}
	case opList:
		o.schema = m.schemas[c.zSch.draw(r)]
	case opPage:
		// A browse keeps its principal and workspace while it walks up to
		// four pages of one schema, then a new browse starts.
		if c.curToken == "" || c.curPages >= 4 {
			c.cur, c.curToken, c.curPages = m.schemas[c.zSch.draw(r)], "", 0
			c.curSeen = map[string]bool{}
			c.curP, c.curWS = o.p, o.ws
		}
		o.schema, o.p, o.ws, o.token = c.cur, c.curP, c.curWS, c.curToken
	case opQueryTag:
		o.tag = m.tagValues[r.Intn(len(m.tagValues))]
	case opUpdate, opGrant, opTag:
		o.assets = []int{c.targets[r.Intn(len(c.targets))]}
	}
	return o
}

// step generates and runs one op, checking its outcome against the model.
func (c *restConn) step() (write bool, err error) {
	o := c.next()
	c.byKind[o.kind]++
	c.n++
	if c.tr != nil && !o.kind.write() && c.n%c.tr.every == 0 {
		return false, c.tr.probe(c, o)
	}
	return o.kind.write(), c.do(o)
}

func (c *restConn) request(method, path, body string, o op, asWriter bool) (*http.Request, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.w.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-UC-Metastore", msID)
	if asWriter {
		req.Header.Set("Authorization", "Bearer "+c.writer)
	} else {
		req.Header.Set("Authorization", "Bearer "+c.m.principals[o.p].name)
		req.Header.Set("X-UC-Workspace", o.ws)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// send performs the request and reads the whole body into c.buf.
func (c *restConn) send(req *http.Request) (int, http.Header, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, err
}

// conditional sends a cacheable read, revalidating with If-None-Match
// whenever the client holds a validator for it, as client.Client does.
func (c *restConn) conditional(req *http.Request, key string) (int, error) {
	tag, have := c.etags[key]
	if have && !c.probing {
		req.Header.Set("If-None-Match", tag)
		c.revalidated++
	} else {
		have = false
	}
	status, hdr, err := c.send(req)
	if err != nil {
		return 0, err
	}
	switch status {
	case http.StatusNotModified:
		if !have {
			return 0, fmt.Errorf("304 without a validator")
		}
		c.notModified++
	case http.StatusOK:
		if et := hdr.Get("ETag"); et != "" {
			if _, ok := c.etags[key]; !ok {
				if old := c.etagRing[c.etagNext]; old != "" {
					delete(c.etags, old)
				}
				c.etagRing[c.etagNext] = key
				c.etagNext = (c.etagNext + 1) % etagCap
			}
			c.etags[key] = et
		}
	}
	return status, nil
}

func wantStatus(allowed bool) int {
	if allowed {
		return http.StatusOK
	}
	return http.StatusForbidden
}

// httpRequest builds read op o's request, without a validator.
func (c *restConn) httpRequest(o op) (*http.Request, error) {
	m := c.m
	switch o.kind {
	case opResolve:
		return c.request("POST", "/resolve", resolveBody(c.names(o)), o, false)
	case opGet:
		return c.request("GET", "/assets/"+m.assets[o.assets[0]].full, "", o, false)
	case opCredPath:
		return c.request("POST", "/temporary-credentials", credPathBody(m.assets[o.assets[0]].storage), o, false)
	case opList, opPage:
		return c.request("GET", listPath(o), "", o, false)
	case opQueryTag:
		return c.request("POST", "/query-assets", queryTagBody(o.tag), o, false)
	}
	return nil, fmt.Errorf("no request for %s", opNames[o.kind])
}

// do runs one op and returns an error for any outcome the model does not
// predict.
func (c *restConn) do(o op) error {
	if o.kind.write() {
		return c.write(o)
	}
	req, err := c.httpRequest(o)
	if err != nil {
		return err
	}
	m := c.m
	switch o.kind {
	case opResolve:
		allowed := true
		for _, a := range o.assets {
			allowed = allowed && m.canRead(o.p, m.assets[a].cat, o.ws)
		}
		status, _, err := c.send(req)
		if err := c.expect(o, status, err, allowed); err != nil || !allowed {
			return err
		}
		names := c.names(o)
		b := c.buf.Bytes()
		for _, n := range names {
			if !bytes.Contains(b, []byte(`"`+n+`":{"entity":`)) {
				return fmt.Errorf("resolve %v: %s missing", names, n)
			}
		}
		if e, cr := bytes.Count(b, []byte(`"entity":`)), bytes.Count(b, []byte(`"credential":{"token":`)); e != len(names) || cr != len(names) {
			return fmt.Errorf("resolve %v: %d assets, %d credentials", names, e, cr)
		}
		return nil
	case opGet:
		a := m.assets[o.assets[0]]
		allowed := m.canRead(o.p, a.cat, o.ws)
		status, err := c.conditional(req, c.key(o, req))
		if err := c.expect(o, status, err, allowed); err != nil || !allowed || status != http.StatusOK {
			return err
		}
		if !bytes.Contains(c.buf.Bytes(), []byte(`"full_name":"`+a.full+`"`)) {
			return fmt.Errorf("get %s: wrong body", a.full)
		}
		return nil
	case opCredPath:
		a := m.assets[o.assets[0]]
		allowed := m.canRead(o.p, a.cat, o.ws)
		status, _, err := c.send(req)
		if err := c.expect(o, status, err, allowed); err != nil || !allowed {
			return err
		}
		if !bytes.Contains(c.buf.Bytes(), []byte(`"asset_name":"`+a.full+`"`)) {
			return fmt.Errorf("credential for path of %s: wrong asset", a.full)
		}
		return nil
	case opList, opPage:
		return c.list(o, req)
	default:
		return c.queryTag(o, req)
	}
}

func (c *restConn) names(o op) []string {
	names := make([]string, len(o.assets))
	for i, a := range o.assets {
		names[i] = c.m.assets[a].full
	}
	return names
}

func resolveBody(names []string) string {
	return `{"Names":["` + strings.Join(names, `","`) + `"],"WithCredentials":true}`
}

// credPath is an object under a table's storage location.
func credPath(storage string) string { return storage + "/part-00000.parquet" }

func credPathBody(storage string) string {
	return `{"path":"` + credPath(storage) + `","operation":"READ"}`
}

func queryTagBody(tag string) string {
	return `{"tag_key":"domain","tag_value":"` + tag + `","max_results":` + strconv.Itoa(pageSize) + `}`
}

// key is a validator cache key: identity and request target.
func (c *restConn) key(o op, req *http.Request) string {
	return c.m.principals[o.p].name + "\x00" + o.ws + "\x00" + req.URL.RequestURI()
}

func (c *restConn) expect(o op, status int, err error, allowed bool) error {
	if err != nil {
		return fmt.Errorf("%s: %w", opNames[o.kind], err)
	}
	if status == http.StatusNotModified && allowed {
		return nil
	}
	if want := wantStatus(allowed); status != want {
		return fmt.Errorf("%s %v as %s from %s: status %d, want %d: %.200s",
			opNames[o.kind], c.targetNames(o), c.m.principals[o.p].name, o.ws, status, want, c.buf.String())
	}
	if !allowed {
		c.denied++
	}
	return nil
}

func (c *restConn) targetNames(o op) []string {
	var out []string
	for _, a := range o.assets {
		out = append(out, c.m.assets[a].full)
	}
	if o.schema != "" {
		out = append(out, o.schema)
	}
	return out
}

// fullNames extracts every "full_name" value of a listing body.
func fullNames(b []byte) []string {
	const field = `"full_name":"`
	var out []string
	for {
		i := bytes.Index(b, []byte(field))
		if i < 0 {
			return out
		}
		b = b[i+len(field):]
		j := bytes.IndexByte(b, '"')
		if j < 0 {
			return out
		}
		out = append(out, string(b[:j]))
		b = b[j:]
	}
}

// nextToken extracts the listing body's nextPageToken, if any.
func nextToken(b []byte) string {
	const field = `"nextPageToken":"`
	i := bytes.LastIndex(b, []byte(field))
	if i < 0 {
		return ""
	}
	b = b[i+len(field):]
	if j := bytes.IndexByte(b, '"'); j >= 0 {
		return string(b[:j])
	}
	return ""
}

// list runs a first-page listing (opList) or the next page of the
// connection's current browse (opPage). Every returned name must be a
// table of the schema, none twice, and pages are full until the last.
func (c *restConn) list(o op, req *http.Request) error {
	m := c.m
	tables := m.tables[o.schema]
	allowed := m.canRead(o.p, m.catOf(o.schema), o.ws)
	var (
		status int
		err    error
	)
	if o.kind == opList {
		status, err = c.conditional(req, c.key(o, req))
	} else {
		status, _, err = c.send(req)
	}
	if err := c.expect(o, status, err, allowed); err != nil {
		return err
	}
	if !allowed || status == http.StatusNotModified {
		return nil // a denied browse ends: its token stays empty
	}
	names := fullNames(c.buf.Bytes())
	next := nextToken(c.buf.Bytes())
	seen := map[string]bool{}
	if o.kind == opPage {
		seen = c.curSeen
	}
	remaining := len(tables) - len(seen)
	for _, n := range names {
		i, ok := m.index[n]
		if !ok || seen[n] || m.assets[i].typ != erm.TypeTable || parentOf(n) != o.schema {
			return fmt.Errorf("list %s: unexpected or repeated %s", o.schema, n)
		}
		seen[n] = true
	}
	if want := min(pageSize, remaining); len(names) != want || (next != "") != (remaining > pageSize) {
		return fmt.Errorf("list %s: page of %d (next %t), want %d of %d remaining",
			o.schema, len(names), next != "", want, remaining)
	}
	if o.kind == opPage {
		c.curToken = next
		c.curPages++
	}
	return nil
}

func listPath(o op) string {
	path := "/assets?parent=" + o.schema + "&type=TABLE&maxResults=" + strconv.Itoa(pageSize)
	if o.token != "" {
		path += "&pageToken=" + url.QueryEscape(o.token)
	}
	return path
}

func parentOf(full string) string {
	if i := strings.LastIndexByte(full, '.'); i >= 0 {
		return full[:i]
	}
	return ""
}

// queryTag runs the first page of a query by tag: every result must carry
// the tag and be visible to the caller, and the page must be full unless
// fewer visible matches exist.
func (c *restConn) queryTag(o op, req *http.Request) error {
	m := c.m
	visible := map[string]bool{}
	for _, full := range m.tagged[o.tag] {
		if m.canRead(o.p, m.catOf(full), o.ws) {
			visible[full] = true
		}
	}
	status, _, err := c.send(req)
	if err := c.expect(o, status, err, true); err != nil {
		return err
	}
	names := fullNames(c.buf.Bytes())
	seen := map[string]bool{}
	for _, n := range names {
		if !visible[n] || seen[n] {
			return fmt.Errorf("query tag %s as %s from %s: %s is not a visible tagged table, or repeated",
				o.tag, m.principals[o.p].name, o.ws, n)
		}
		seen[n] = true
	}
	if want := min(pageSize, len(visible)); len(names) != want {
		return fmt.Errorf("query tag %s: %d results, want %d", o.tag, len(names), want)
	}
	return nil
}

// write runs one governed write as the connection's pipeline principal
// and records what it acknowledged, for the read-back checks.
func (c *restConn) write(o op) error {
	c.seq++
	var (
		method, path, body string
		want               = http.StatusNoContent
		ack                func()
	)
	switch o.kind {
	case opUpdate:
		a, comment := o.assets[0], fmt.Sprintf("%s-%d", c.writer, c.seq)
		method, path, body = "PATCH", "/assets/"+c.m.assets[a].full, `{"comment":"`+comment+`"}`
		want = http.StatusOK
		ack = func() { c.comments[a] = comment }
	case opGrant:
		a := o.assets[0]
		method = "POST"
		if c.granted[a] {
			method = "DELETE"
		}
		path, body = "/grants", `{"securable":"`+c.m.assets[a].full+`","principal":"`+toggleGrantee+`","privilege":"SELECT"}`
		ack = func() { c.granted[a] = !c.granted[a] }
	case opTag:
		a, v := o.assets[0], strconv.Itoa(c.seq)
		method, path, body = "POST", "/tags", `{"securable":"`+c.m.assets[a].full+`","key":"pipeline_run","value":"`+v+`"}`
		ack = func() { c.tagged[a] = v }
	case opCreate:
		name := fmt.Sprintf("%s_t%06d", c.writer, c.seq)
		method, path = "POST", "/tables"
		body = `{"schema_full":"` + outSchema + `","name":"` + name + `","spec":{"columns":[{"name":"id","type":"BIGINT"}]}}`
		want = http.StatusCreated
		ack = func() { c.created = append(c.created, outSchema+"."+name) }
	}
	req, err := c.request(method, path, body, o, true)
	if err != nil {
		return err
	}
	status, _, err := c.send(req)
	if err != nil {
		return fmt.Errorf("%s: %w", opNames[o.kind], err)
	}
	if status != want {
		return fmt.Errorf("%s %v as %s: status %d, want %d: %.200s", opNames[o.kind], c.targetNames(o), c.writer, status, want, c.buf.String())
	}
	ack()
	return nil
}
