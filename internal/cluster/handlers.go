package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"biaslab/internal/retry"
	"biaslab/internal/server"
)

// Register mounts the cluster protocol on a mux, alongside the daemon's
// ordinary API:
//
//	POST /v1/cluster/join       worker registration (JoinRequest → JoinResponse)
//	POST /v1/cluster/heartbeat  lease renewal + delivery + assignment
//	POST /v1/cluster/leave      graceful departure
//	GET  /v1/cluster/status     worker census and coordinator metrics
//
// Request bodies are decoded strictly: unknown fields are refused with
// 400, bodies over server.MaxRequestBytes with 413.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/cluster/join", c.handleJoin)
	mux.HandleFunc("POST /v1/cluster/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/cluster/leave", c.handleLeave)
	mux.HandleFunc("GET /v1/cluster/status", c.handleStatus)
}

func clusterJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type clusterError struct {
	Error string `json:"error"`
}

// decodeRequest strictly decodes a protocol request body (see
// server.DecodeRequest), answering the rejection itself on failure: an
// unknown field gets 400 naming it, an oversized body 413.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	if status, err := server.DecodeRequest(w, r, v); err != nil {
		clusterJSON(w, status, clusterError{err.Error()})
		return false
	}
	return true
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	resp, err := c.Join(req)
	switch {
	case errors.Is(err, ErrNotReady):
		clusterJSON(w, http.StatusServiceUnavailable, clusterError{err.Error()})
	case err != nil:
		clusterJSON(w, http.StatusBadRequest, clusterError{err.Error()})
	default:
		clusterJSON(w, http.StatusOK, resp)
	}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	resp, err := c.Heartbeat(req)
	switch {
	case errors.Is(err, ErrUnknownWorker):
		// 409: the worker's registration is gone; it must rejoin.
		clusterJSON(w, http.StatusConflict, clusterError{err.Error()})
	case err != nil:
		clusterJSON(w, http.StatusBadRequest, clusterError{err.Error()})
	default:
		clusterJSON(w, http.StatusOK, resp)
	}
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req LeaveRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	c.Leave(req)
	clusterJSON(w, http.StatusOK, struct{}{})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	clusterJSON(w, http.StatusOK, c.Status())
}

// ProbeReadyHTTP returns a ProbeReady that checks a worker's /readyz over
// HTTP — the readiness split's cluster consumer: a draining worker
// answers 503 there and is refused membership.
func ProbeReadyHTTP(client *http.Client) func(addr string) error {
	if client == nil {
		client = http.DefaultClient
	}
	return func(addr string) error {
		resp, err := client.Get(addr + "/readyz")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("readyz returned %s", resp.Status)
		}
		return nil
	}
}

// httpTransport is the worker's HTTP client for the coordinator protocol.
type httpTransport struct {
	base   string
	client *http.Client
	retry  retry.Policy
}

// Dial returns a Transport speaking the protocol against a coordinator at
// base (e.g. http://host:port). Transient failures — connection errors
// and 5xx — are retried with capped exponential backoff; protocol
// rejections (ErrUnknownWorker) are returned to the worker loop, which
// knows the remedy is a rejoin, not a retry.
func Dial(base string, client *http.Client, pol retry.Policy) Transport {
	if client == nil {
		client = http.DefaultClient
	}
	return &httpTransport{base: base, client: client, retry: pol}
}

func (t *httpTransport) Join(ctx context.Context, req JoinRequest) (JoinResponse, error) {
	var resp JoinResponse
	err := t.post(ctx, "/v1/cluster/join", req, &resp)
	return resp, err
}

func (t *httpTransport) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := t.post(ctx, "/v1/cluster/heartbeat", req, &resp)
	return resp, err
}

func (t *httpTransport) Leave(ctx context.Context, req LeaveRequest) error {
	return t.post(ctx, "/v1/cluster/leave", req, &struct{}{})
}

// post sends one protocol request, retrying transport-level failures.
func (t *httpTransport) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	transient := func(err error) bool {
		if errors.Is(err, ErrUnknownWorker) {
			return false // the remedy is a rejoin, not a retry
		}
		var se *statusError
		if errors.As(err, &se) {
			return se.status >= 500
		}
		return true // network-level failure
	}
	return t.retry.Do(ctx, path, transient, func() error {
		httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		httpReq.Header.Set("Content-Type", "application/json")
		httpResp, err := t.client.Do(httpReq)
		if err != nil {
			return err
		}
		defer httpResp.Body.Close()
		if httpResp.StatusCode != http.StatusOK {
			var ce clusterError
			data, _ := io.ReadAll(io.LimitReader(httpResp.Body, 1<<16))
			json.Unmarshal(data, &ce)
			if httpResp.StatusCode == http.StatusConflict {
				return fmt.Errorf("%w (%s)", ErrUnknownWorker, ce.Error)
			}
			return &statusError{status: httpResp.StatusCode, msg: ce.Error}
		}
		return json.NewDecoder(httpResp.Body).Decode(resp)
	})
}

// statusError is a non-200 protocol response.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("cluster: coordinator returned %d: %s", e.status, e.msg)
}
