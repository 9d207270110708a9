package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"nocsched/internal/ctg"
	"nocsched/internal/noc"
)

// Request is the JSON body of POST /v1/schedule: one workload — a
// communication task graph, the platform to schedule it on, and the
// algorithm to use. Execution parameters (TimeoutMS) ride along but
// are not part of the workload's identity.
type Request struct {
	// Graph is the communication task graph (the cmd/tgffgen /
	// ctg.Graph.WriteJSON format). Required; malformed or cyclic
	// graphs are rejected at decode time by ctg's validation.
	Graph *ctg.Graph `json:"graph"`
	// Platform describes the target NoC (the noc.PlatformSpec format,
	// same as easched -platform). Omitted selects the default 4x4
	// heterogeneous XY mesh with bandwidth 256.
	Platform *noc.PlatformSpec `json:"platform,omitempty"`
	// Algorithm selects the scheduler: "eas" (default), "eas-base"
	// (EAS without search-and-repair), "edf", or "dls".
	Algorithm string `json:"algorithm,omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds, covering
	// queueing and solving; <= 0 selects the server's default. The
	// solve itself is not abandoned when the deadline expires — the
	// result still lands in the cache for the retry to hit.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// The accepted Request.Algorithm values.
const (
	AlgoEAS     = "eas"
	AlgoEASBase = "eas-base"
	AlgoEDF     = "edf"
	AlgoDLS     = "dls"
)

// DefaultPlatform is the platform spec selected when a request omits
// one: the repository's standard 4x4 heterogeneous XY mesh.
func DefaultPlatform() noc.PlatformSpec {
	return noc.PlatformSpec{Topology: "mesh", Width: 4, Height: 4, Routing: "xy", Bandwidth: 256}
}

// canonicalWorkload is the digest input: the request's semantic
// content re-marshaled into one fixed field order with every default
// made explicit. Two request bodies that differ only in JSON key
// order, whitespace, or spelled-out defaults (e.g. "routing":"xy" on
// a mesh vs omitting it) canonicalize to identical bytes and so hash
// equal; anything that changes the scheduling problem changes the
// digest. The version field ties digests to this schema so a future
// format change cannot alias an old cache entry.
type canonicalWorkload struct {
	V         int              `json:"v"`
	Algorithm string           `json:"algorithm"`
	Platform  noc.PlatformSpec `json:"platform"`
	Graph     *ctg.Graph       `json:"graph"`
}

// digestVersion is bumped whenever the canonical form changes shape.
const digestVersion = 1

// normalizeAlgorithm maps the request's algorithm to its canonical
// name, defaulting to EAS.
func normalizeAlgorithm(a string) (string, error) {
	switch a {
	case "", AlgoEAS:
		return AlgoEAS, nil
	case AlgoEASBase, AlgoEDF, AlgoDLS:
		return a, nil
	default:
		return "", fmt.Errorf("serve: unknown algorithm %q (want eas, eas-base, edf or dls)", a)
	}
}

// normalizeSpec fills a platform spec's defaults so equivalent specs
// marshal identically: topology defaults to mesh, mesh routing
// defaults to xy, and non-mesh topologies (which have exactly one
// routing function) carry no routing field at all. An empty class
// list (= the standard heterogeneous library) stays empty rather than
// being expanded, so "default classes" and a future library change
// keep distinct digests from spelled-out class tables.
func normalizeSpec(spec noc.PlatformSpec) noc.PlatformSpec {
	if spec.Topology == "" {
		spec.Topology = "mesh"
	}
	if spec.Topology == "mesh" {
		if spec.Routing == "" {
			spec.Routing = "xy"
		}
	} else {
		spec.Routing = ""
	}
	if len(spec.Classes) == 0 {
		spec.Classes = nil
	}
	return spec
}

// WorkloadDigest computes the content address of a workload:
// sha256 over the canonical form, rendered "sha256:<hex>". The graph
// is marshaled through ctg's deterministic exporter (tasks and edges
// in insertion order), so the digest is stable across processes.
func WorkloadDigest(algorithm string, spec noc.PlatformSpec, g *ctg.Graph) (string, error) {
	raw, err := json.Marshal(canonicalWorkload{
		V:         digestVersion,
		Algorithm: algorithm,
		Platform:  normalizeSpec(spec),
		Graph:     g,
	})
	if err != nil {
		return "", fmt.Errorf("serve: canonicalize workload: %w", err)
	}
	sum := sha256.Sum256(raw)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// platformKey content-addresses a platform spec alone, for the ACG
// cache: requests naming equivalent platforms share one ACG (and so
// one copy of its routes).
func platformKey(spec noc.PlatformSpec) (string, error) {
	raw, err := json.Marshal(normalizeSpec(spec))
	if err != nil {
		return "", fmt.Errorf("serve: canonicalize platform: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}
