package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"biaslab/internal/audit"
	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/journal"
	"biaslab/internal/server"
)

// daemonOp is one client operation of daemon-mixed.
type daemonOp struct {
	label  string
	spec   server.JobSpec
	write  bool   // a never-seen spec: follow its events, then fetch the result
	format string // result format fetched: json, text or csv
}

// daemonInputs is the daemon-mixed workload at size test. The store holds
// six results; each of the two clients makes six reads (a resubmit of a
// stored spec, then its result in json, text or csv) and four writes
// (three never-seen run specs and one never-seen randomize n=12 spec). The
// operations and their order are fixed; the seed draws the writes' env
// sizes and randomize seeds, so every write is a spec the store has never
// seen. Which operations of the two clients run at the same time sets the
// daemon's peak memory: with an order drawn from the seed, peak_rss_mb
// moved with the seed by more than any bound the benchmark may set.
func daemonInputs(seed uint64) (stored []server.JobSpec, clients [2][]daemonOp) {
	stored = []server.JobSpec{
		{Kind: server.KindRun, Size: "test", Bench: "hmmer"},
		{Kind: server.KindRun, Size: "test", Bench: "sjeng"},
		{Kind: server.KindRun, Size: "test", Bench: "perlbench"},
		{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer"},
		{Kind: server.KindRandomize, Size: "test", Bench: "sjeng"},
		{Kind: server.KindSweepTenant, Size: "test", Bench: "mcf"},
	}
	r := &rng{s: seed ^ 0x6461656d6f6e}
	formats := []string{"json", "text", "csv"}
	var reads, writes [2][]daemonOp
	// Twelve reads, each stored spec in two or three formats. The hmmer run
	// is read three times and the tenant sweep once: the reads' latencies
	// fall in one cluster per spec, and this puts the median inside the
	// hmmer cluster instead of on the edge between two clusters, where it
	// would jump with noise.
	for i, si := range []int{0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 0} {
		op := daemonOp{spec: stored[si], format: formats[(i+i/len(stored))%len(formats)]}
		op.label = "read/" + specLabel(op.spec) + "/" + op.format
		reads[i%2] = append(reads[i%2], op)
	}
	runWrites := []server.JobSpec{
		{Bench: "hmmer", Machine: "core2", Level: "O3"},
		{Bench: "sjeng", Machine: "p4", Level: "O2"},
		{Bench: "perlbench", Machine: "p4", Level: "O3"},
		{Bench: "mcf", Machine: "core2", Level: "O2"},
		{Bench: "libquantum", Machine: "core2", Level: "O3"},
		{Bench: "milc", Machine: "p4", Level: "O2"},
	}
	for i, spec := range runWrites {
		spec.Kind, spec.Size = server.KindRun, "test"
		// Stored run specs use the default 512 bytes; skip it so every
		// write is a spec the store has never seen.
		spec.EnvBytes = uint64(17 + r.intn(4080))
		if spec.EnvBytes == core.DefaultEnvBytes {
			spec.EnvBytes++
		}
		writes[i%2] = append(writes[i%2], daemonOp{spec: spec, write: true, format: "json"})
	}
	// The randomize writes, the costliest operations, are client 0's first
	// write and client 1's last, so the two never run together.
	for c, b := range []string{"mcf", "hmmer"} {
		spec := server.JobSpec{Kind: server.KindRandomize, Size: "test", Bench: b, N: 12, Seed: 2 + r.next()%1_000_000}
		op := daemonOp{spec: spec, write: true, format: "json"}
		if c == 0 {
			writes[c] = append([]daemonOp{op}, writes[c]...)
		} else {
			writes[c] = append(writes[c], op)
		}
	}
	for c := range clients {
		for _, kind := range "rrwrwrrwrw" {
			var op daemonOp
			if kind == 'r' {
				op, reads[c] = reads[c][0], reads[c][1:]
			} else {
				op, writes[c] = writes[c][0], writes[c][1:]
				op.label = "write/" + specLabel(op.spec)
			}
			clients[c] = append(clients[c], op)
		}
	}
	return stored, clients
}

// daemonMixed drives an in-process biaslabd (server.New with two workers
// and the auditor attached, as cmd/biaslabd builds it) over loopback HTTP
// from two client connections. Every pass restarts the daemon over a fresh
// copy of the pre-populated store, so every pass does identical work.
type daemonMixed struct {
	o        options
	clients  [2][]daemonOp
	snapshot string
	refs     map[string]string // key/format → digest of server.Execute's result
	keys     map[string]string // op label → content key
}

func newDaemonMixed(o options, stored []server.JobSpec, clients [2][]daemonOp) (*daemonMixed, error) {
	d := &daemonMixed{o: o, clients: clients, snapshot: filepath.Join(o.work, "snapshot"), refs: map[string]string{}, keys: map[string]string{}}
	if err := d.populate(stored); err != nil {
		return nil, fmt.Errorf("populating the store: %w", err)
	}
	if err := d.references(); err != nil {
		return nil, fmt.Errorf("computing reference results: %w", err)
	}
	return d, nil
}

// populate stores the read specs' results through a daemon.
func (d *daemonMixed) populate(stored []server.JobSpec) error {
	srv, err := server.New(server.Config{DataDir: d.snapshot, Workers: 2})
	if err != nil {
		return err
	}
	srv.SetAuditor(audit.New(srv.Runner))
	defer srv.Shutdown(context.Background())
	for _, spec := range stored {
		resp, err := srv.Submit(spec)
		if err != nil {
			return err
		}
		for {
			st, ok := srv.Job(resp.ID)
			if !ok {
				return fmt.Errorf("job %s vanished", resp.ID)
			}
			if st.State == server.StateDone {
				break
			}
			if st.State == server.StateFailed || st.State == server.StateCanceled {
				return fmt.Errorf("%s %s: %s", spec.Kind, spec.Bench, st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// references executes every op's canonical spec with server.Execute off
// the timed path; every result the daemon returns must match these bytes,
// and the stored results must already match them.
func (d *daemonMixed) references() error {
	r := core.NewRunner(bench.SizeTest)
	store, err := server.OpenStore(filepath.Join(d.snapshot, "results.jsonl"))
	if err != nil {
		return err
	}
	defer store.Close()
	for _, ops := range d.clients {
		for _, op := range ops {
			c, err := op.spec.Canonicalize()
			if err != nil {
				return err
			}
			key, err := server.Key(c)
			if err != nil {
				return err
			}
			d.keys[op.label] = key
			if _, done := d.refs[key+"/json"]; done {
				continue
			}
			res, err := server.Execute(context.Background(), r, c, nil, nil)
			if err != nil {
				return err
			}
			raw, err := server.EncodeResult(res)
			if err != nil {
				return err
			}
			dec, err := server.DecodeResult(raw)
			if err != nil {
				return err
			}
			text, err := server.RenderText(dec)
			if err != nil {
				return err
			}
			csv, err := server.RenderCSV(dec)
			if err != nil {
				return err
			}
			d.refs[key+"/json"], d.refs[key+"/text"], d.refs[key+"/csv"] = digest(raw), digest([]byte(text)), digest([]byte(csv))
			got, ok, err := store.Get(key)
			switch {
			case err != nil:
				return err
			case ok == op.write:
				return fmt.Errorf("%s: stored=%v, want %v", op.label, ok, !op.write)
			case ok && !bytes.Equal(got, raw):
				return fmt.Errorf("%s: stored result differs from server.Execute's", op.label)
			}
		}
	}
	return nil
}

// timedAuditor wraps the daemon's auditor with a span per AuditSpec call
// and counts audits of a canonical spec this daemon already audited.
type timedAuditor struct {
	inner server.SpecAuditor
	tr    *tracer
	mu    sync.Mutex
	seen  map[string]bool
}

func (a *timedAuditor) AuditSpec(spec server.JobSpec) ([]server.AuditFinding, error) {
	if key, err := server.Key(spec); err == nil {
		a.mu.Lock()
		if a.seen[key] {
			a.tr.add("audit.repeats", 1)
		}
		a.seen[key] = true
		a.mu.Unlock()
	}
	t0 := time.Now()
	f, err := a.inner.AuditSpec(spec)
	a.tr.span("audit", t0)
	return f, err
}

// timedHandler records a span around the submit and result handlers.
func timedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			tr.span("server.submit", t0)
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/results/"):
			tr.span("server.result", t0)
		}
	})
}

// daemon is one running biaslabd instance.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
}

func (d *daemonMixed) start(dir string, tr *tracer) (*daemon, error) {
	srv, err := server.New(server.Config{DataDir: dir, Workers: 2})
	if err != nil {
		return nil, err
	}
	var auditor server.SpecAuditor = audit.New(srv.Runner)
	var h http.Handler = srv.Handler()
	if tr != nil {
		auditor = &timedAuditor{inner: auditor, tr: tr, seen: map[string]bool{}}
		h = timedHandler(h, tr)
	}
	srv.SetAuditor(auditor)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	dm := &daemon{srv: srv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { dm.done <- dm.hs.Serve(ln) }()
	return dm, nil
}

func (dm *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := dm.hs.Shutdown(ctx)
	if err := <-dm.done; err != http.ErrServerClosed {
		herr = err
	}
	if err := dm.srv.Shutdown(ctx); err != nil {
		return err
	}
	return herr
}

func (d *daemonMixed) pass(traced bool) (*passResult, error) {
	p := &passResult{counts: map[string]uint64{}}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	dir, err := os.MkdirTemp(d.o.work, "daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := copyFile(filepath.Join(d.snapshot, "results.jsonl"), filepath.Join(dir, "results.jsonl")); err != nil {
		return nil, err
	}

	// Set-up: restart the daemon over the pre-populated store until
	// /readyz answers 200.
	t0 := time.Now()
	dm, err := d.start(dir, tr)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			dm.stop()
		}
	}()
	probe := &http.Client{Transport: &http.Transport{}}
	defer probe.CloseIdleConnections()
	if err := waitReady(probe, dm.base); err != nil {
		return nil, err
	}
	p.setups = append(p.setups, time.Since(t0))

	// The two clients' closed loops.
	if err := startPass(); err != nil {
		return nil, err
	}
	var results [2][]clientResult
	var wg sync.WaitGroup
	a0 := heapAlloc()
	start := time.Now()
	for c := range d.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
			defer hc.CloseIdleConnections()
			for _, op := range d.clients[c] {
				results[c] = append(results[c], d.do(hc, dm.base, op))
			}
		}(c)
	}
	wg.Wait()
	p.window = time.Since(start)
	p.alloc = heapAlloc() - a0
	if p.peakRSS, err = peakRSSMB(); err != nil {
		return nil, err
	}

	var writeWait time.Duration
	var hits, checkpointRecs uint64
	for c := range results {
		for _, r := range results[c] {
			p.ops = append(p.ops, r.op)
			if r.cached {
				hits++
			}
			writeWait += r.writeWait
			checkpointRecs += r.points
		}
	}
	p.jobs = uint64(len(p.ops))
	p.allocUnit = p.jobs

	m, err := scrape(probe, dm.base)
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := dm.stop(); err != nil {
		return nil, err
	}
	storeRecs, err := d.replayStore(dir, tr)
	if err != nil {
		return nil, err
	}

	var jobs uint64
	for k, v := range m {
		if strings.HasPrefix(k, "biaslabd_jobs{") {
			jobs += v
		}
	}
	p.rows = m["biaslabd_points_measured_total"]
	p.instr = m["biaslabd_instructions_retired_total"]
	p.counts = map[string]uint64{
		"ops":                        uint64(len(p.ops)),
		"rows":                       p.rows,
		"client.cached_responses":    hits,
		"server.cache_hits":          m["biaslabd_cache_hits_total"],
		"server.jobs_retained":       jobs,
		"audit.calls":                m["biaslabd_audit_specs_clean_total"] + m["biaslabd_audit_specs_flagged_total"],
		"core.measurements":          m["biaslabd_measurements_total"],
		"machine.instructions":       p.instr,
		"journal.records":            storeRecs,
		"journal.checkpoint_records": checkpointRecs,
	}
	if traced {
		tr.set("core.measurements", float64(p.counts["core.measurements"]))
		tr.set("machine.instructions", float64(p.instr))
		tr.set("core.failed", float64(countFailed(p.ops)))
		tr.set("server.write_wait_ms", float64(writeWait)/float64(time.Millisecond))
		tr.set("server.cache_hits", float64(p.counts["server.cache_hits"]))
		if sub := m["biaslabd_jobs_submitted_total"]; sub > 0 {
			tr.set("server.cache_hit_ratio", float64(p.counts["server.cache_hits"])/float64(sub))
		}
		tr.set("server.jobs_retained", float64(jobs))
		p.layers = tr.layers()
		if got := uint64(p.layers["audit.calls"]); got != p.counts["audit.calls"] {
			return nil, fmt.Errorf("timed auditor saw %d audits, /metrics reports %d", got, p.counts["audit.calls"])
		}
	}
	return p, nil
}

// replayStore counts the results the pass appended to the store and, in a
// traced pass, times re-recording each through journal.Record.
func (d *daemonMixed) replayStore(dir string, tr *tracer) (uint64, error) {
	before, err := journal.Open(filepath.Join(d.snapshot, "results.jsonl"))
	if err != nil {
		return 0, err
	}
	n0 := before.Len()
	before.Close()
	after, err := journal.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		return 0, err
	}
	defer after.Close()
	added := uint64(after.Len() - n0)
	if tr == nil {
		return added, nil
	}
	scratch, err := journal.Open(filepath.Join(dir, "replay.jsonl"))
	if err != nil {
		return 0, err
	}
	defer scratch.Close()
	for _, ops := range d.clients {
		for _, op := range ops {
			if !op.write {
				continue
			}
			key := d.keys[op.label]
			raw, ok := after.Raw(key)
			if !ok {
				return 0, fmt.Errorf("%s: result %s not in the store", op.label, key)
			}
			t0 := time.Now()
			err := scratch.Record(key, raw)
			tr.span("journal.record", t0)
			if err != nil {
				return 0, err
			}
		}
	}
	return added, nil
}

// clientResult is one op as a client saw it.
type clientResult struct {
	op     opResult
	cached bool
	// writeWait is, for a write, the time from the submit response to the
	// receipt of the job's done event: queue wait plus execution as the
	// client sees them. The events carry no server time, and the stream
	// replays past events to a late subscriber, so the two cannot be told
	// apart from outside.
	writeWait time.Duration
	points    uint64 // SSE point events of checkpointed jobs
}

// do runs one op: POST the spec; for a write, follow its events until it
// is done; then GET the result. Latency runs from the POST to the last
// result byte.
func (d *daemonMixed) do(hc *http.Client, base string, op daemonOp) clientResult {
	out := clientResult{op: opResult{label: op.label, hit: !op.write}}
	t0 := time.Now()
	raw, err := func() ([]byte, error) {
		body, err := json.Marshal(op.spec)
		if err != nil {
			return nil, err
		}
		var resp server.SubmitResponse
		if err := fetchJSON(hc, http.MethodPost, base+"/v1/jobs", body, &resp); err != nil {
			return nil, err
		}
		out.cached = resp.Cached
		if resp.Cached == op.write {
			return nil, fmt.Errorf("submit cached=%v, want %v", resp.Cached, !op.write)
		}
		if resp.Key != d.keys[op.label] {
			return nil, fmt.Errorf("submit key %s, want %s", resp.Key, d.keys[op.label])
		}
		if op.write {
			posted := time.Now()
			done, err := out.follow(hc, base, resp.ID, op.spec.Kind != server.KindRun)
			if err != nil {
				return nil, err
			}
			out.writeWait = done.Sub(posted)
		}
		return fetch(hc, http.MethodGet, base+"/v1/results/"+resp.Key+"?format="+op.format, nil)
	}()
	out.op.latency = time.Since(t0)
	if err == nil {
		out.op.digest = digest(raw)
		if want := d.refs[d.keys[op.label]+"/"+op.format]; out.op.digest != want {
			err = fmt.Errorf("result digest %s differs from server.Execute's %s", out.op.digest, want)
		}
	}
	out.op.err = err
	return out
}

// follow reads a job's SSE stream until the job is terminal and returns
// when the done event arrived.
func (cr *clientResult) follow(hc *http.Client, base, id string, checkpointed bool) (time.Time, error) {
	resp, err := hc.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return time.Time{}, fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return time.Time{}, err
		}
		switch {
		case ev.Type == "point" && checkpointed:
			cr.points++
		case ev.Type == "state" && ev.State == server.StateDone:
			done := time.Now()
			io.Copy(io.Discard, resp.Body)
			return done, nil
		case ev.Type == "state" && (ev.State == server.StateFailed || ev.State == server.StateCanceled):
			return time.Time{}, fmt.Errorf("job %s %s: %s", id, ev.State, data)
		}
	}
	if err := sc.Err(); err != nil {
		return time.Time{}, err
	}
	return time.Time{}, fmt.Errorf("job %s: event stream ended before the job was done", id)
}

func fetch(hc *http.Client, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

func fetchJSON(hc *http.Client, method, url string, body []byte, out any) error {
	raw, err := fetch(hc, method, url, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

func waitReady(hc *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := fetch(hc, http.MethodGet, base+"/readyz", nil)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// scrape reads /metrics into name → value.
func scrape(hc *http.Client, base string) (map[string]uint64, error) {
	raw, err := fetch(hc, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	m := map[string]uint64{}
	for _, line := range strings.Split(string(raw), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			continue
		}
		m[name] = v
	}
	return m, nil
}

func copyFile(src, dst string) error {
	raw, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, raw, 0o644)
}
