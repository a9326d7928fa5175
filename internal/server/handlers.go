package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Handler returns the daemon's HTTP API:
//
//	POST /v1/jobs                submit a job (JobSpec → SubmitResponse);
//	                             ?strict=1 rejects audited-criminal specs (422);
//	                             unknown fields 400, bodies over MaxRequestBytes 413
//	GET  /v1/jobs/{id}           job status (JobStatus)
//	GET  /v1/jobs/{id}/events    SSE stream of per-point progress (?since=N)
//	GET  /v1/results/{key}       stored result; ?format=json|text|csv
//	GET  /v1/catalog             benchmarks, machines, experiments
//	GET  /metrics                text-format counters
//	GET  /healthz                liveness: 200 whenever the process is up
//	GET  /readyz                 readiness: 503 while draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// auditRejection is the JSON body of a ?strict=1 rejection: the error plus
// the findings that caused it, so the client can print the charges.
type auditRejection struct {
	Error string         `json:"error"`
	Audit []AuditFinding `json:"audit"`
}

// MaxRequestBytes bounds every JSON request body the daemon decodes: job
// submissions and the cluster protocol's join, heartbeat and leave.
const MaxRequestBytes = 8 << 20

// DecodeRequest strictly decodes r's JSON body into v. A body larger than
// MaxRequestBytes is refused with 413. Unknown fields are refused with 400
// naming the field, never dropped: a misspelled or retired field would
// otherwise run at a silent default the caller did not ask for. On
// failure it returns the status to answer with.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", MaxRequestBytes)
		}
		return http.StatusBadRequest, err
	}
	return http.StatusOK, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if status, err := DecodeRequest(w, r, &spec); err != nil {
		writeError(w, status, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	strict := r.URL.Query().Get("strict") == "1"
	resp, err := s.SubmitStrict(spec, strict)
	var rejected *AuditRejectedError
	switch {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.As(err, &rejected):
		// The spec is well-formed but commits benchmarking crimes the
		// caller asked us to gate on: unprocessable, with the findings.
		writeJSON(w, http.StatusUnprocessableEntity, auditRejection{Error: err.Error(), Audit: rejected.Findings})
	case err != nil:
		// Submission errors are spec validation failures: the caller's fault.
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a job's events as SSE: every event already
// recorded is replayed first (late subscribers see the full history), then
// new events as they happen; the stream ends when the job reaches a
// terminal state. Each event carries its absolute index as the SSE id;
// a reconnecting client passes ?since=N (the index after the last event it
// saw) to receive exactly the events it missed — no duplicates, no gaps.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	idx := 0
	if since := r.URL.Query().Get("since"); since != "" {
		n, err := strconv.Atoi(since)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad since %q", since))
			return
		}
		idx = n
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	for {
		evs, changed, done := j.eventsSince(idx)
		for i, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", idx+i, ev.Type, data)
		}
		idx += len(evs)
		fl.Flush()
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	raw, ok, err := s.Result(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no result for key %q", key))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		// The stored bytes, verbatim: cached results are byte-identical to
		// fresh ones by construction.
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
	case "text", "csv":
		res, err := DecodeResult(raw)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		var out string
		if format == "text" {
			out, err = RenderText(res)
		} else {
			out, err = RenderCSV(res)
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, out)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want json, text or csv)", format))
	}
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, NewCatalog())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	extra := s.extraMetrics
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.MetricsSnapshot().Render())
	if extra != nil {
		fmt.Fprint(w, extra())
	}
}

// handleHealthz is the liveness probe: 200 whenever the process is up,
// even while draining — a draining daemon is alive and must not be
// restarted out from under its in-flight checkpoint writes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: 503 while draining (the daemon is
// alive but must receive no new work). The cluster coordinator's worker
// health checks use this endpoint, so a draining worker stops receiving
// shard assignments before its executor stops.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
