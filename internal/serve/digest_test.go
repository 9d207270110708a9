package serve

import (
	"encoding/json"
	"testing"

	"nocsched/internal/noc"
	"nocsched/internal/tgff"
)

// testGraphJSON renders a small deterministic graph as JSON.
func testGraphJSON(t *testing.T, seed int64, ntasks int) []byte {
	t.Helper()
	spec := noc.PlatformSpec{Topology: "mesh", Width: 3, Height: 3, Routing: "xy", Bandwidth: 256}
	platform, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := tgff.SuiteParams(tgff.CategoryI, 0, platform)
	p.Name = "digest-test"
	p.Seed = seed
	p.NumTasks = ntasks
	g, err := tgff.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// digestOf decodes a raw request body exactly like the handler does
// and returns its workload digest.
func digestOf(t *testing.T, body []byte) string {
	t.Helper()
	d, _ := keysOf(t, body)
	return d
}

// keysOf decodes a raw request body exactly like the handler does and
// returns its workload digest and platform key.
func keysOf(t *testing.T, body []byte) (digest, pkey string) {
	t.Helper()
	var req Request
	if err := decodeRequest(body, &req); err != nil {
		t.Fatalf("decode request: %v", err)
	}
	algorithm, err := normalizeAlgorithm(req.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultPlatform()
	if req.Platform != nil {
		spec = *req.Platform
	}
	digest, err = WorkloadDigest(algorithm, spec, req.Graph)
	if err != nil {
		t.Fatal(err)
	}
	pkey, err = platformKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	return digest, pkey
}

// TestDigestCanonicalization is the cache-keying core invariant: two
// request bodies that differ only in JSON key order, whitespace, and
// spelled-out defaults digest identically, because the digest is taken
// over the decoded, canonicalized workload, not the wire bytes.
func TestDigestCanonicalization(t *testing.T) {
	graph := testGraphJSON(t, 7, 12)

	// Body A: graph first, algorithm spelled out, platform with every
	// default explicit, compact whitespace.
	bodyA := []byte(`{"graph":` + string(graph) +
		`,"algorithm":"eas","platform":{"topology":"mesh","width":4,"height":4,"routing":"xy","bandwidth":256}}`)
	// Body B: fields permuted, defaults omitted (algorithm "" = eas,
	// platform omitted = the default 4x4 mesh), airy whitespace.
	bodyB := []byte("{\n  \"platform\": {\"bandwidth\": 256, \"height\": 4, \"width\": 4},\n  \"graph\": " +
		string(graph) + "\n}")
	// Body C: no platform at all — the documented default.
	bodyC := []byte(`{"graph":` + string(graph) + `}`)

	dA, dB, dC := digestOf(t, bodyA), digestOf(t, bodyB), digestOf(t, bodyC)
	if dA != dB {
		t.Errorf("key order / spelled-out defaults changed the digest:\nA %s\nB %s", dA, dB)
	}
	if dA != dC {
		t.Errorf("omitted platform digests differently from the explicit default:\nA %s\nC %s", dA, dC)
	}

	// Execution parameters are not workload identity.
	bodyTimeout := []byte(`{"graph":` + string(graph) + `,"timeout_ms":1500}`)
	if d := digestOf(t, bodyTimeout); d != dA {
		t.Errorf("timeout_ms changed the digest: %s vs %s", d, dA)
	}
}

// TestDigestSeparatesWorkloads: anything that changes the scheduling
// problem must change the digest.
func TestDigestSeparatesWorkloads(t *testing.T) {
	graph := testGraphJSON(t, 7, 12)
	base := digestOf(t, []byte(`{"graph":`+string(graph)+`}`))

	// Different algorithm.
	if d := digestOf(t, []byte(`{"graph":`+string(graph)+`,"algorithm":"edf"}`)); d == base {
		t.Error("algorithm change kept the digest")
	}
	// Different platform.
	if d := digestOf(t, []byte(`{"graph":`+string(graph)+
		`,"platform":{"topology":"mesh","width":4,"height":4,"bandwidth":128}}`)); d == base {
		t.Error("bandwidth change kept the digest")
	}
	// Different graph.
	other := testGraphJSON(t, 8, 12)
	if d := digestOf(t, []byte(`{"graph":`+string(other)+`}`)); d == base {
		t.Error("graph change kept the digest")
	}
}

// TestDigestAlgorithmValidation rejects unknown algorithms.
func TestDigestAlgorithmValidation(t *testing.T) {
	if _, err := normalizeAlgorithm("sa"); err == nil {
		t.Error("unknown algorithm accepted")
	}
	for _, a := range []string{"", AlgoEAS, AlgoEASBase, AlgoEDF, AlgoDLS} {
		if _, err := normalizeAlgorithm(a); err != nil {
			t.Errorf("normalizeAlgorithm(%q): %v", a, err)
		}
	}
}
