package server_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/server"
	"biaslab/internal/server/client"
)

func newServer(t *testing.T, dir string, workers int) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{DataDir: dir, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// waitDone polls a job until it reaches a terminal state.
func waitDone(t *testing.T, srv *server.Server, id string) *server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(180 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := srv.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch st.State {
		case server.StateDone, server.StateFailed, server.StateCanceled:
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return nil
}

func sweepSpec() server.JobSpec {
	// Step 256 keeps the sweep small (17 points) so the suite stays quick
	// under -race.
	return server.JobSpec{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 256}
}

// localBytes runs a spec through the shared Execute path exactly as
// cmd/biaslab's local mode does and returns the canonical encoding.
func localBytes(t *testing.T, spec server.JobSpec) []byte {
	t.Helper()
	canonical, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	size, _ := bench.ParseSize(canonical.Size)
	res, err := server.Execute(context.Background(), core.NewRunner(size), canonical, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := server.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSweepByteIdentityAndCache is acceptance criteria (a) and (b): a
// sweep submitted over HTTP stores exactly the bytes the same command
// produces locally, and resubmitting the identical spec is a cache hit
// that performs zero new measurements.
func TestSweepByteIdentityAndCache(t *testing.T) {
	srv := newServer(t, t.TempDir(), 2)
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	cl.PollInterval = 2 * time.Millisecond
	ctx := context.Background()

	sub, err := cl.Submit(ctx, sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if sub.Cached || sub.InFlight {
		t.Fatalf("fresh submission: %+v", sub)
	}
	st, err := cl.Wait(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("job finished %s (error %+v), want done", st.State, st.Error)
	}
	if st.Progress.Replayed != 0 {
		t.Errorf("fresh sweep replayed %d points", st.Progress.Replayed)
	}
	if st.Progress.Done == 0 || st.Progress.Done != st.Progress.Total {
		t.Errorf("progress %+v, want done == total > 0", st.Progress)
	}

	// (a) The stored result is byte-identical to the local execution path,
	// and both render identically through the shared renderers.
	res, raw, err := cl.Result(ctx, sub.Key)
	if err != nil {
		t.Fatal(err)
	}
	local := localBytes(t, sweepSpec())
	if !bytes.Equal(raw, local) {
		t.Errorf("HTTP result differs from local execution:\nremote %s\nlocal  %s", raw, local)
	}
	text, err := server.RenderText(res)
	if err != nil {
		t.Fatal(err)
	}
	if want := "O3-over-O2 speedup of hmmer vs environment size (p4)"; !bytes.Contains([]byte(text), []byte(want)) {
		t.Errorf("rendered text missing %q:\n%.200s", want, text)
	}
	csv, err := server.RenderCSV(res)
	if err != nil || len(csv) == 0 {
		t.Errorf("RenderCSV = %q, %v", csv, err)
	}

	// (b) Identical resubmission: cache hit, zero new measurements.
	before := srv.MetricsSnapshot()
	sub2, err := cl.Submit(ctx, sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !sub2.Cached || sub2.State != server.StateDone {
		t.Fatalf("resubmission not served from cache: %+v", sub2)
	}
	if sub2.Key != sub.Key {
		t.Errorf("identical specs keyed differently: %s vs %s", sub.Key, sub2.Key)
	}
	after := srv.MetricsSnapshot()
	if after.Measurements != before.Measurements {
		t.Errorf("cache hit measured: %d → %d", before.Measurements, after.Measurements)
	}
	if after.CacheHits != before.CacheHits+1 {
		t.Errorf("cache hits %d → %d, want +1", before.CacheHits, after.CacheHits)
	}
	_, raw2, err := cl.Result(ctx, sub2.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("cached result bytes differ from the original")
	}

	// The event stream replays the full history of a finished job.
	var points, stateDone int
	if err := cl.Events(ctx, sub.ID, func(ev server.Event) {
		switch ev.Type {
		case "point":
			points++
		case "state":
			if ev.State == server.StateDone {
				stateDone++
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if points != st.Progress.Total {
		t.Errorf("event stream replayed %d points, want %d", points, st.Progress.Total)
	}
	if stateDone != 1 {
		t.Errorf("event stream carried %d done events, want 1", stateDone)
	}
}

// TestShutdownResumeLosesNoPoints is acceptance criterion (c): SIGTERM
// (Shutdown) mid-sweep, restart on the same data dir, resubmit — every
// point completed before the interruption is replayed from the job
// journal, only the remainder is measured, and the final result is
// byte-identical to an uninterrupted run.
func TestShutdownResumeLosesNoPoints(t *testing.T) {
	dir := t.TempDir()
	// step 192 → 22 points: enough runway to interrupt mid-flight without
	// making the resumed and reference runs expensive under -race.
	spec := server.JobSpec{Kind: server.KindSweepEnv, Size: "test", Bench: "hmmer", Machine: "p4", Step: 192}

	srv1 := newServer(t, dir, 1)
	sub, err := srv1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let a few points land, then pull the plug.
	deadline := time.Now().Add(180 * time.Second)
	for {
		st, _ := srv1.Job(sub.ID)
		if st.Progress.Done >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep made no progress")
		}
		time.Sleep(500 * time.Microsecond)
	}
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, _ := srv1.Job(sub.ID)
	if st.State != server.StateCanceled {
		t.Fatalf("interrupted job is %s, want canceled", st.State)
	}
	interrupted := st.Progress.Done
	if interrupted < 3 || interrupted >= st.Progress.Total {
		t.Fatalf("interrupted at %d/%d points; test needs a mid-sweep cut", interrupted, st.Progress.Total)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", sub.Key+".jsonl")); err != nil {
		t.Fatalf("interrupted job left no journal: %v", err)
	}

	// Restart on the same data dir and resubmit: the journal must replay
	// every completed point and the sweep must finish by measuring only the
	// remainder.
	srv2 := newServer(t, dir, 1)
	defer srv2.Shutdown(context.Background())
	sub2, err := srv2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sub2.Cached {
		t.Fatal("interrupted job resubmitted as a store hit; nothing was resumed")
	}
	if sub2.Key != sub.Key {
		t.Fatalf("resubmission keyed %s, interrupted job was %s", sub2.Key, sub.Key)
	}
	st2 := waitDone(t, srv2, sub2.ID)
	if st2.State != server.StateDone {
		t.Fatalf("resumed job finished %s (error %+v)", st2.State, st2.Error)
	}
	if st2.Progress.Replayed == 0 {
		t.Error("resumed job replayed nothing; completed points were lost")
	}
	if st2.Progress.Replayed > interrupted {
		t.Errorf("replayed %d points but only %d were observed before the cut", st2.Progress.Replayed, interrupted)
	}
	if st2.Progress.Done != st2.Progress.Total {
		t.Errorf("resumed progress %+v, want done == total", st2.Progress)
	}
	m := srv2.MetricsSnapshot()
	if fresh := st2.Progress.Total - st2.Progress.Replayed; int(m.PointsMeasured) != fresh {
		t.Errorf("restarted daemon measured %d points, want %d (total %d − replayed %d)",
			m.PointsMeasured, fresh, st2.Progress.Total, st2.Progress.Replayed)
	}

	// The resumed result must be byte-identical to an uninterrupted run.
	raw, ok, err := srv2.Result(sub.Key)
	if err != nil || !ok {
		t.Fatalf("resumed result missing: ok=%v err=%v", ok, err)
	}
	if local := localBytes(t, spec); !bytes.Equal(raw, local) {
		t.Errorf("resumed result differs from an uninterrupted run:\nresumed %s\nfresh   %s", raw, local)
	}
	// The job journal is redundant once the result is durable.
	if _, err := os.Stat(filepath.Join(dir, "jobs", sub.Key+".jsonl")); !os.IsNotExist(err) {
		t.Errorf("job journal survived result storage: %v", err)
	}
}

// TestSingleflight: submitting a spec identical to a queued/running job
// joins it instead of spawning duplicate work.
func TestSingleflight(t *testing.T) {
	srv := newServer(t, t.TempDir(), 1)
	defer srv.Shutdown(context.Background())
	sub1, err := srv.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := srv.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !sub2.InFlight || sub2.ID != sub1.ID {
		t.Errorf("duplicate submission spawned a new job: %+v vs %+v", sub2, sub1)
	}
	waitDone(t, srv, sub1.ID)
	m := srv.MetricsSnapshot()
	if m.JobsSubmitted != 2 || m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Errorf("submitted/hits/misses = %d/%d/%d, want 2/1/1", m.JobsSubmitted, m.CacheHits, m.CacheMisses)
	}
}

// TestSubmitValidation: a malformed spec is rejected before any job is
// created.
func TestSubmitValidation(t *testing.T) {
	srv := newServer(t, t.TempDir(), 1)
	defer srv.Shutdown(context.Background())
	for _, spec := range []server.JobSpec{
		{},
		{Kind: "explode"},
		{Kind: server.KindRun},
		{Kind: server.KindRun, Bench: "nope"},
		{Kind: server.KindRun, Bench: "hmmer", Machine: "vax"},
		{Kind: server.KindRun, Bench: "hmmer", Size: "enormous"},
		{Kind: server.KindExperiment, Experiment: "F99"},
		{Kind: server.KindRandomize, Bench: "hmmer", Tol: -1},
	} {
		if _, err := srv.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid spec", spec)
		}
	}
	if m := srv.MetricsSnapshot(); m.JobsSubmitted != 0 {
		t.Errorf("invalid specs counted as submissions: %d", m.JobsSubmitted)
	}
}

// TestSubmitRejectsUnknownFields: POST /v1/jobs refuses a spec carrying a
// field JobSpec does not have — the retired "adaptive" flag or a typo like
// "envv_size" — with 400 and a body naming the field, instead of running
// the job at a silent default. Nothing is submitted.
func TestSubmitRejectsUnknownFields(t *testing.T) {
	srv := newServer(t, t.TempDir(), 1)
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, tc := range []struct{ field, body string }{
		{"adaptive", `{"kind":"sweep-env","bench":"hmmer","size":"test","adaptive":true}`},
		{"envv_size", `{"kind":"run","bench":"hmmer","size":"test","envv_size":1024}`},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.field, resp.StatusCode, msg)
		}
		if !strings.Contains(string(msg), tc.field) {
			t.Errorf("%s: error body does not name the field: %s", tc.field, msg)
		}
	}
	if m := srv.MetricsSnapshot(); m.JobsSubmitted != 0 {
		t.Errorf("rejected specs counted as submissions: %d", m.JobsSubmitted)
	}
}

// TestDecodeResultLenient: stored results stay readable across field
// removals. A result written when sweeps could run adaptively carries
// "adaptive" in its spec and payload; it must still decode.
func TestDecodeResultLenient(t *testing.T) {
	raw := `{"kind":"sweep-env","spec":{"kind":"sweep-env","size":"test","bench":"hmmer","machine":"core2","personality":"gcc","step":128,"adaptive":true},` +
		`"env_sweep":{"benchmark":"hmmer","machine":"core2","points":[],"adaptive":{"grid_points":33,"measured":33},"report":{}}}`
	res, err := server.DecodeResult([]byte(raw))
	if err != nil {
		t.Fatalf("legacy result refused: %v", err)
	}
	if res.EnvSweep == nil || res.Spec.Bench != "hmmer" {
		t.Fatalf("legacy result decoded wrong: %+v", res)
	}
}

// TestDrainingRejectsSubmissions: after Shutdown no new work is accepted.
func TestDrainingRejectsSubmissions(t *testing.T) {
	srv := newServer(t, t.TempDir(), 1)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(sweepSpec()); err != server.ErrDraining {
		t.Errorf("Submit after Shutdown = %v, want ErrDraining", err)
	}
}

// TestRunJobThroughHTTP: the smallest job kind exercises the whole HTTP
// surface — submit, status, result in all three formats, metrics, healthz.
func TestRunJobThroughHTTP(t *testing.T) {
	srv := newServer(t, t.TempDir(), 1)
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	cl.PollInterval = 2 * time.Millisecond
	ctx := context.Background()

	spec := server.JobSpec{Kind: server.KindRun, Size: "test", Bench: "libquantum", Machine: "core2", Level: "O3"}
	sub, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Wait(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("run job finished %s: %+v", st.State, st.Error)
	}
	res, raw, err := cl.Result(ctx, sub.Key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run == nil || res.Run.Cycles == 0 || res.Run.Benchmark != "libquantum" {
		t.Fatalf("run payload wrong: %+v", res.Run)
	}
	if local := localBytes(t, spec); !bytes.Equal(raw, local) {
		t.Errorf("HTTP run result differs from local execution")
	}
	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := srv.MetricsSnapshot().Render(); metrics != want {
		t.Errorf("/metrics drifted from snapshot:\n%s\nvs\n%s", metrics, want)
	}
}

// TestSubmitRejectsOversizedBody: POST /v1/jobs reads at most
// MaxRequestBytes of body and answers 413 past that, without submitting.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	srv := newServer(t, t.TempDir(), 1)
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := `{"kind":"run","bench":"hmmer","size":"test","machine":"` + strings.Repeat("x", server.MaxRequestBytes) + `"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413: %s", resp.StatusCode, msg)
	}
	if m := srv.MetricsSnapshot(); m.JobsSubmitted != 0 {
		t.Errorf("oversized spec counted as a submission: %d", m.JobsSubmitted)
	}
}
