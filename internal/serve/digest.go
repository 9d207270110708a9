package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"nocsched/internal/ctg"
	"nocsched/internal/jsonx"
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

// decodeRequest parses a POST /v1/schedule body into req in one pass,
// the graph straight into its ctg.Graph. It accepts exactly the bodies
// json.NewDecoder(bytes.NewReader(body)).Decode(req) accepts and
// decodes them to the same request: bytes after the first value are
// ignored, keys match case-insensitively, unknown keys are skipped, a
// repeated platform merges into the first and a repeated array
// replaces the earlier one.
func decodeRequest(body []byte, req *Request) error {
	d := jsonx.NewDecoder(body)
	_, err := d.Object(func(key []byte) error {
		switch jsonx.Field(key, "graph", "platform", "algorithm", "timeout_ms") {
		case 0:
			if null, err := d.Null(); null || err != nil {
				req.Graph = nil
				return err
			}
			g, err := ctg.DecodeJSON(d)
			req.Graph = g
			return err
		case 1:
			if null, err := d.Null(); null || err != nil {
				req.Platform = nil
				return err
			}
			if req.Platform == nil {
				req.Platform = new(noc.PlatformSpec)
			}
			return req.Platform.DecodeJSON(d)
		case 2:
			return d.String(&req.Algorithm)
		case 3:
			return d.Int64(&req.TimeoutMS)
		}
		return d.Skip()
	})
	return err
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
// sha256 over its canonical form, rendered "sha256:<hex>". The
// canonical form is the request's semantic content with every default
// made explicit, written as json.Marshal writes
//
//	{"v": digestVersion, "algorithm": ..., "platform": <normalized
//	 noc.PlatformSpec>, "graph": <ctg.Graph JSON>}
//
// Two request bodies that differ only in JSON key order, whitespace,
// or spelled-out defaults (e.g. "routing":"xy" on a mesh vs omitting
// it) canonicalize to identical bytes and so hash equal; anything that
// changes the scheduling problem changes the digest. The version field
// ties digests to this schema so a future format change cannot alias
// an old cache entry. The graph is written through ctg's deterministic
// exporter (tasks and edges in insertion order), so the digest is
// stable across processes; the bytes stream into the hash through a
// small buffer.
func WorkloadDigest(algorithm string, spec noc.PlatformSpec, g *ctg.Graph) (string, error) {
	spec = normalizeSpec(spec)
	h := sha256.New()
	w := jsonx.Writer{Out: h, Buf: make([]byte, 0, 8<<10)}
	w.BeginObject()
	w.Key("v")
	w.Int(digestVersion)
	w.Key("algorithm")
	w.String(algorithm)
	w.Key("platform")
	spec.AppendJSON(&w)
	w.Key("graph")
	g.AppendJSON(&w)
	w.EndObject()
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("serve: canonicalize workload: %w", err)
	}
	var sum [sha256.Size]byte
	return "sha256:" + hex.EncodeToString(h.Sum(sum[:0])), nil
}

// platformKey content-addresses a platform spec alone, for the ACG
// cache: requests naming equivalent platforms share one ACG (and so
// one copy of its routes).
func platformKey(spec noc.PlatformSpec) (string, error) {
	spec = normalizeSpec(spec)
	var w jsonx.Writer
	spec.AppendJSON(&w)
	if err := w.Err(); err != nil {
		return "", fmt.Errorf("serve: canonicalize platform: %w", err)
	}
	sum := sha256.Sum256(w.Buf)
	return hex.EncodeToString(sum[:]), nil
}
