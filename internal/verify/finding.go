// Package verify is an independent, side-effect-free conformance
// oracle for schedules. It re-derives every invariant the paper's
// Sec. 4 formulation imposes — task precedence including communication
// delays along the actual routes, PE mutual exclusion (Definition 4),
// per-link slot capacity (Definition 3) and route validity on any
// topology, hard-deadline feasibility, and bit-exact Eq. (2)/(3)
// energy accounting — from first principles, without trusting the
// builder or schedule tables that produced the schedule. Each
// violation is reported as a typed, machine-readable Finding rather
// than a bool, so harnesses and CLIs can gate on exact classes.
package verify

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"nocsched/internal/ctg"
	"nocsched/internal/noc"
)

// Class identifies one family of schedule invariants.
type Class int

const (
	// ClassShape covers structural defects: missing or misnumbered
	// placement slots, out-of-range task/edge/PE/link identifiers.
	// Shape findings mean the schedule is not even indexable as a
	// solution, so dependent checks (notably energy) are skipped.
	ClassShape Class = iota
	// ClassTask covers per-task placement defects: incapable PE,
	// negative start, or a finish that is not start + execution time.
	ClassTask
	// ClassPrecedence covers dependency violations: a transaction that
	// starts before its sender finishes, finishes after its receiver
	// starts, lasts other than its transfer time, or whose endpoint
	// PEs disagree with the task placements.
	ClassPrecedence
	// ClassPEOverlap is Definition 4: two tasks on one PE overlapping
	// in time.
	ClassPEOverlap
	// ClassRoute covers route defects: a route that is not a connected
	// link chain from the source tile to the destination tile, revisits
	// a link, exists on a zero-time transaction, or deviates from the
	// ACG's deterministic route.
	ClassRoute
	// ClassLinkOverlap is Definition 3: two transactions occupying one
	// link with intersecting time slots.
	ClassLinkOverlap
	// ClassDeadline is a hard-deadline miss: finish > deadline.
	ClassDeadline
	// ClassEnergy is an energy-accounting mismatch: the oracle's
	// re-derived switch/link/compute energy differs (by even 1 ULP)
	// from the schedule's own accessors, or a transaction is priced
	// over an unroutable PE pair.
	ClassEnergy

	numClasses
)

var classNames = [numClasses]string{
	"shape", "task-placement", "precedence", "pe-overlap",
	"route", "link-overlap", "deadline", "energy",
}

// Classes lists every finding class in declaration order.
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

func (c Class) String() string {
	if c < 0 || c >= numClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// MarshalJSON encodes the class as its stable string name.
func (c Class) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON decodes a class from its string name.
func (c *Class) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range classNames {
		if name == s {
			*c = Class(i)
			return nil
		}
	}
	return fmt.Errorf("verify: unknown finding class %q", s)
}

// Finding is one concrete invariant violation. Identifier fields not
// relevant to the violation are -1.
type Finding struct {
	Class Class `json:"class"`
	// Task is the offending task (or the second task of an overlapping
	// pair), -1 when not task-scoped.
	Task ctg.TaskID `json:"task"`
	// Edge is the offending transaction's edge (or the second edge of
	// an overlapping pair), -1 when not edge-scoped.
	Edge ctg.EdgeID `json:"edge"`
	// PE is the processing element involved, -1 when not PE-scoped.
	PE int `json:"pe"`
	// Link is the contended link, -1 when not link-scoped.
	Link noc.LinkID `json:"link"`
	// Detail is a human-readable explanation with got/want values.
	Detail string `json:"detail"`
}

func (f Finding) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s]", f.Class)
	if f.Task >= 0 {
		fmt.Fprintf(&b, " task=%d", f.Task)
	}
	if f.Edge >= 0 {
		fmt.Fprintf(&b, " edge=%d", f.Edge)
	}
	if f.PE >= 0 {
		fmt.Fprintf(&b, " pe=%d", f.PE)
	}
	if f.Link >= 0 {
		fmt.Fprintf(&b, " link=%d", f.Link)
	}
	b.WriteString(": ")
	b.WriteString(f.Detail)
	return b.String()
}

// Report is the oracle's verdict: every finding it collected, in
// deterministic check order.
type Report struct {
	Findings []Finding `json:"findings"`
	// Truncated reports that the finding cap was reached and checking
	// stopped early; the absence of a class in Findings is then not a
	// guarantee.
	Truncated bool `json:"truncated,omitempty"`
}

// OK reports whether the schedule passed every check.
func (r *Report) OK() bool { return len(r.Findings) == 0 }

// Count returns the number of findings of one class.
func (r *Report) Count(c Class) int {
	n := 0
	for i := range r.Findings {
		if r.Findings[i].Class == c {
			n++
		}
	}
	return n
}

// Structural returns every finding except ClassDeadline, in check
// order: the findings that make a schedule wrong rather than late. A
// deadline miss is a legitimate, reported outcome of a
// feasibility-constrained workload (the CLIs exit 1 on it; the
// service still serves the schedule).
func (r *Report) Structural() []Finding {
	var out []Finding
	for i := range r.Findings {
		if r.Findings[i].Class != ClassDeadline {
			out = append(out, r.Findings[i])
		}
	}
	return out
}

// ByClass returns the findings of one class, in check order.
func (r *Report) ByClass(c Class) []Finding {
	var out []Finding
	for i := range r.Findings {
		if r.Findings[i].Class == c {
			out = append(out, r.Findings[i])
		}
	}
	return out
}

// Err returns nil for a clean report, otherwise an error summarizing
// the finding counts per class (for callers that want error plumbing
// rather than typed findings).
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	var parts []string
	for _, c := range Classes() {
		if n := r.Count(c); n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, c))
		}
	}
	return fmt.Errorf("verify: %d findings (%s); first: %s",
		len(r.Findings), strings.Join(parts, ", "), r.Findings[0])
}

// String renders the report one finding per line ("ok" when clean).
func (r *Report) String() string {
	if r.OK() {
		return "ok"
	}
	var b strings.Builder
	for i := range r.Findings {
		b.WriteString(r.Findings[i].String())
		b.WriteByte('\n')
	}
	if r.Truncated {
		b.WriteString("(truncated: finding cap reached)\n")
	}
	return b.String()
}

// WriteJSON writes the report as indented JSON. A clean report encodes
// "findings": [] rather than null, so consumers can index
// unconditionally.
func (r *Report) WriteJSON(w io.Writer) error {
	out := *r
	if out.Findings == nil {
		out.Findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}
