package cluster_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"biaslab/internal/cluster"
	"biaslab/internal/server"
)

// TestProtocolStrictIntake: join, heartbeat and leave refuse a body with
// a field the protocol does not have (400, naming the field) and a body
// over server.MaxRequestBytes (413), and such a join registers nobody.
func TestProtocolStrictIntake(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{Runner: runnerCache()})
	mux := http.NewServeMux()
	coord.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	huge := strings.Repeat("x", server.MaxRequestBytes)
	for _, tc := range []struct {
		path, body string
		status     int
		want       string
	}{
		{"/v1/cluster/join", `{"worker":"w1","slots":2,"slot":4}`, http.StatusBadRequest, "slot"},
		{"/v1/cluster/heartbeat", `{"worker":"w1","epoch":1,"helds":["s"]}`, http.StatusBadRequest, "helds"},
		{"/v1/cluster/leave", `{"worker":"w1","epoch":1,"reason":"bye"}`, http.StatusBadRequest, "reason"},
		{"/v1/cluster/join", `{"worker":"` + huge + `"}`, http.StatusRequestEntityTooLarge, "exceeds"},
		{"/v1/cluster/heartbeat", `{"worker":"` + huge + `"}`, http.StatusRequestEntityTooLarge, "exceeds"},
		{"/v1/cluster/leave", `{"worker":"` + huge + `"}`, http.StatusRequestEntityTooLarge, "exceeds"},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d: %.200s", tc.path, resp.StatusCode, tc.status, msg)
		}
		if !strings.Contains(string(msg), tc.want) {
			t.Errorf("%s: error body does not mention %q: %.200s", tc.path, tc.want, msg)
		}
	}
	if st := coord.Status(); len(st.Workers) != 0 {
		t.Errorf("refused joins registered workers: %+v", st.Workers)
	}
}
