package server_test

import (
	"testing"

	"biaslab/internal/server"
)

func mustKey(t *testing.T, spec server.JobSpec) string {
	t.Helper()
	key, err := server.Key(spec)
	if err != nil {
		t.Fatalf("Key(%+v): %v", spec, err)
	}
	return key
}

// TestKeyCanonicalization: two specs that request the same work must hash
// to the same content key, however they spell it.
func TestKeyCanonicalization(t *testing.T) {
	base := server.JobSpec{Kind: server.KindSweepEnv, Bench: "hmmer"}
	explicit := server.JobSpec{
		Kind: server.KindSweepEnv, Bench: "hmmer",
		Size: "small", Machine: "core2", Personality: "gcc", Step: 128,
	}
	if k1, k2 := mustKey(t, base), mustKey(t, explicit); k1 != k2 {
		t.Errorf("defaulted and explicit specs keyed differently:\n%s\n%s", k1, k2)
	}

	// Fields the kind does not use must not perturb the key.
	noisy := base
	noisy.Orders = 999
	noisy.N = 7
	noisy.Tol = 0.5
	noisy.EnvBytes = 4096
	noisy.Level = "O3"
	noisy.Experiment = "F3"
	if k1, k2 := mustKey(t, base), mustKey(t, noisy); k1 != k2 {
		t.Errorf("kind-irrelevant fields changed the key:\n%s\n%s", k1, k2)
	}
}

// TestKeySeparatesWork: any field the kind does use must separate keys.
func TestKeySeparatesWork(t *testing.T) {
	base := server.JobSpec{Kind: server.KindSweepEnv, Bench: "hmmer"}
	variants := []server.JobSpec{
		{Kind: server.KindSweepLink, Bench: "hmmer"},
		{Kind: server.KindSweepEnv, Bench: "libquantum"},
		{Kind: server.KindSweepEnv, Bench: "hmmer", Machine: "p4"},
		{Kind: server.KindSweepEnv, Bench: "hmmer", Size: "test"},
		{Kind: server.KindSweepEnv, Bench: "hmmer", Step: 64},
		{Kind: server.KindSweepEnv, Bench: "hmmer", Personality: "icc"},
	}
	seen := map[string]int{mustKey(t, base): -1}
	for i, v := range variants {
		k := mustKey(t, v)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with %d: %+v", i, prev, v)
		}
		seen[k] = i
	}
}

// TestKeyTenantFields pins the co-run fields' keying contract: a spec
// without a co-runner keys exactly as it did before the fields existed
// (every stored pre-tenancy result stays reachable), judgment metadata
// never perturbs the key, and the fields that do change the work separate
// keys.
func TestKeyTenantFields(t *testing.T) {
	legacy := server.JobSpec{Kind: server.KindRandomize, Bench: "sjeng", Machine: "core2", N: 16}

	// Context is judgment metadata — audited, never measured.
	claimed := legacy
	claimed.Context = "serving"
	if k1, k2 := mustKey(t, legacy), mustKey(t, claimed); k1 != k2 {
		t.Errorf("context perturbed the key:\n%s\n%s", k1, k2)
	}

	// Co fields on a kind that does not use them must not perturb the key.
	noisy := server.JobSpec{Kind: server.KindSweepEnv, Bench: "hmmer", CoBench: "milc", CoLevel: "O3", Quantum: 999}
	if k1, k2 := mustKey(t, server.JobSpec{Kind: server.KindSweepEnv, Bench: "hmmer"}), mustKey(t, noisy); k1 != k2 {
		t.Errorf("co fields perturbed a sweep-env key:\n%s\n%s", k1, k2)
	}

	// Defaulted and explicit co parameters share one key.
	base := server.JobSpec{Kind: server.KindSweepTenant, Bench: "sjeng", Machine: "core2"}
	explicit := base
	explicit.CoLevel = "O2"
	explicit.Quantum = 4096
	if k1, k2 := mustKey(t, base), mustKey(t, explicit); k1 != k2 {
		t.Errorf("defaulted and explicit co-run specs keyed differently:\n%s\n%s", k1, k2)
	}

	// The fields that change the work separate keys.
	pinned := legacy
	pinned.CoBench = "sjeng"
	randomized := legacy
	randomized.CoRandom = true
	fastSlice := base
	fastSlice.Quantum = 1024
	seen := map[string]string{}
	for name, s := range map[string]server.JobSpec{
		"legacy": legacy, "pinned": pinned, "randomized": randomized,
		"sweep": base, "sweep-q1024": fastSlice,
	} { //determlint:allow collision check is order-independent
		k := mustKey(t, s)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestKeyRejectsInvalidSpecs: keying validates, so garbage can never be
// stored under a well-formed key.
func TestKeyRejectsInvalidSpecs(t *testing.T) {
	for _, spec := range []server.JobSpec{
		{},
		{Kind: "sideways"},
		{Kind: server.KindSweepEnv},
		{Kind: server.KindSweepEnv, Bench: "hmmer", Size: "jumbo"},
		{Kind: server.KindExperiment},
	} {
		if _, err := server.Key(spec); err == nil {
			t.Errorf("Key(%+v) succeeded, want error", spec)
		}
	}
}

// TestKeyIsStable pins the key format: a version-prefixed SHA-256 hex
// digest. If this test breaks, stored results from older daemons are
// orphaned — bump keyVersion deliberately, not by accident.
func TestKeyIsStable(t *testing.T) {
	key := mustKey(t, server.JobSpec{Kind: server.KindSweepEnv, Bench: "hmmer"})
	if len(key) != 64 {
		t.Errorf("key %q is not a SHA-256 hex digest", key)
	}
	if again := mustKey(t, server.JobSpec{Kind: server.KindSweepEnv, Bench: "hmmer"}); again != key {
		t.Errorf("keying is not deterministic: %s vs %s", key, again)
	}
}

// TestKeyLiterals pins the literal content key of one canonical spec per
// job kind. A stored result is reachable only under its key, so any change
// to canonicalization, field names or the encoding that moves one of these
// orphans every result a daemon or cluster has stored for that kind. Change
// a value here only together with a deliberate keyVersion bump.
func TestKeyLiterals(t *testing.T) {
	for _, tc := range []struct {
		spec server.JobSpec
		key  string
	}{
		{server.JobSpec{Kind: server.KindRun, Bench: "hmmer"}, "254114e6db0d1144b0f10924daf10d9e3402986b02a781bcc17dee1c5bcbe866"},
		{server.JobSpec{Kind: server.KindSweepEnv, Bench: "hmmer"}, "bb5564e1293e4438704cde1f9c11efab41e22b6545aaf81953a56422d28834bb"},
		{server.JobSpec{Kind: server.KindSweepPad, Bench: "hmmer"}, "2bf5c8cc1412dff4b3965676c60d8c0ef281b969e6ba1dfea7aa6e17721f5078"},
		{server.JobSpec{Kind: server.KindSweepBase, Bench: "hmmer"}, "d7dc3e156758d11be98f7bbe55debdd5de65744ef9e40e978517ee8a6b140dc2"},
		{server.JobSpec{Kind: server.KindSweepLink, Bench: "hmmer"}, "b5aa01aaac2ebac400c45b4494ff0889551ef3818aac5ce418ed5a890cb0549e"},
		{server.JobSpec{Kind: server.KindSweepTenant, Bench: "sjeng"}, "914d35139b5acaff01e58f614048a07fc53487d4ed17bdff2152d3fe2e0c8065"},
		{server.JobSpec{Kind: server.KindRandomize, Bench: "sjeng"}, "55a44fba12cb4ccf7b30761b6045a762458c609f416061108a114a9832c1f9f3"},
		{server.JobSpec{Kind: server.KindExperiment, Experiment: "F3"}, "ede9263903efc0c9466353ae13e5fd125b43fe9e4ba511ae28ad29320b75cdff"},
	} {
		if got := mustKey(t, tc.spec); got != tc.key {
			t.Errorf("%s key moved:\ngot  %s\nwant %s", tc.spec.Kind, got, tc.key)
		}
	}
}
