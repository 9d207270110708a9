package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ValidateExposition checks that r holds well-formed Prometheus text
// exposition as emitted by WritePrometheus: every sample belongs to a
// `# TYPE` family declared exactly once, names are in the Prometheus
// charset, label pairs are properly quoted and escaped, values parse,
// and histogram families are structurally sound (cumulative
// non-decreasing `_bucket` series per label set ending in `le="+Inf"`,
// with the +Inf bucket equal to `_count`, and both `_sum` and `_count`
// present). It returns the number of sample lines. The CI service lane
// runs this against a real scrape of a running schedd daemon so a
// malformed exposition fails the build.
func ValidateExposition(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	families := make(map[string]string) // name -> type
	hists := make(map[string]*histCheck)
	samples := 0
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) >= 2 && fields[1] == "HELP" {
				continue
			}
			if len(fields) != 4 || fields[1] != "TYPE" {
				return 0, fmt.Errorf("obs: line %d: malformed comment %q", line, text)
			}
			name, typ := fields[2], fields[3]
			if !validMetricName(name) {
				return 0, fmt.Errorf("obs: line %d: invalid metric name %q", line, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return 0, fmt.Errorf("obs: line %d: unknown type %q", line, typ)
			}
			if prev, dup := families[name]; dup {
				return 0, fmt.Errorf("obs: line %d: duplicate TYPE for %q (already %s)", line, name, prev)
			}
			families[name] = typ
			if typ == "histogram" {
				hists[name] = &histCheck{buckets: make(map[string][]bucketSample)}
			}
			continue
		}
		name, labels, value, err := parseSample(text)
		if err != nil {
			return 0, fmt.Errorf("obs: line %d: %w", line, err)
		}
		samples++
		fam, suffix := familyOf(name, families)
		if fam == "" {
			return 0, fmt.Errorf("obs: line %d: sample %q has no TYPE declaration", line, name)
		}
		if families[fam] == "histogram" {
			h := hists[fam]
			switch suffix {
			case "_bucket":
				le, ok := labels["le"]
				if !ok {
					return 0, fmt.Errorf("obs: line %d: %s without le label", line, name)
				}
				rest := labelsMinus(labels, "le")
				h.buckets[rest] = append(h.buckets[rest], bucketSample{le: le, v: value, line: line})
			case "_sum":
				h.sum, h.haveSum = value, true
			case "_count":
				h.count, h.haveCount = value, true
			default:
				return 0, fmt.Errorf("obs: line %d: histogram sample %q is not _bucket/_sum/_count", line, name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("obs: read: %w", err)
	}
	for name, h := range hists {
		if err := h.check(name); err != nil {
			return 0, err
		}
	}
	return samples, nil
}

// bucketSample is one _bucket line awaiting the per-family check.
type bucketSample struct {
	le   string
	v    float64
	line int
}

// histCheck accumulates one histogram family's structural state.
type histCheck struct {
	buckets            map[string][]bucketSample // extra-label set -> buckets in file order
	sum, count         float64
	haveSum, haveCount bool
}

// check enforces the histogram contract once the whole family is read.
func (h *histCheck) check(name string) error {
	if !h.haveSum || !h.haveCount {
		return fmt.Errorf("obs: histogram %q missing _sum or _count", name)
	}
	if len(h.buckets) == 0 {
		return fmt.Errorf("obs: histogram %q has no _bucket samples", name)
	}
	for rest, bs := range h.buckets {
		lastLE := ""
		prev := -1.0
		prevBound := 0.0
		for i, b := range bs {
			if b.v < prev {
				return fmt.Errorf("obs: line %d: histogram %q buckets not cumulative", b.line, name)
			}
			bound, err := parseLE(b.le)
			if err != nil {
				return fmt.Errorf("obs: line %d: histogram %q: %w", b.line, name, err)
			}
			if i > 0 && bound <= prevBound {
				return fmt.Errorf("obs: line %d: histogram %q le bounds not ascending", b.line, name)
			}
			prev, prevBound, lastLE = b.v, bound, b.le
		}
		if lastLE != "+Inf" {
			return fmt.Errorf("obs: histogram %q{%s} does not end in le=\"+Inf\"", name, rest)
		}
		// The single-series (no extra labels) shape WritePrometheus
		// emits must agree with _count.
		if rest == "" && bs[len(bs)-1].v != h.count {
			return fmt.Errorf("obs: histogram %q +Inf bucket %g != count %g", name, bs[len(bs)-1].v, h.count)
		}
	}
	return nil
}

// parseLE parses an le label value, mapping +Inf onto math.Inf.
func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad le %q", s)
	}
	return v, nil
}

// familyOf resolves a sample name to its declared family: the exact
// name, or for histogram sub-series the name minus a known suffix.
// Returns the family and the matched suffix ("" for an exact match).
func familyOf(name string, families map[string]string) (string, string) {
	if _, ok := families[name]; ok {
		return name, ""
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if families[base] == "histogram" || families[base] == "summary" {
				return base, suffix
			}
		}
	}
	return "", ""
}

// parseSample splits one sample line into name, labels and value.
func parseSample(text string) (string, map[string]string, float64, error) {
	rest := text
	i := strings.IndexAny(rest, "{ \t")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", text)
	}
	name := rest[:i]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[i:]
	labels := map[string]string{}
	if rest[0] == '{' {
		var err error
		labels, rest, err = parseLabels(rest[1:])
		if err != nil {
			return "", nil, 0, err
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return "", nil, 0, fmt.Errorf("malformed value in %q", text)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	return name, labels, v, nil
}

// parseLabels consumes `name="value",...}` returning the remainder
// after the closing brace.
func parseLabels(s string) (map[string]string, string, error) {
	labels := map[string]string{}
	for {
		s = strings.TrimLeft(s, " \t")
		if len(s) == 0 {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if s[0] == '}' {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		lname := strings.TrimSpace(s[:eq])
		if !validLabelName(lname) {
			return nil, "", fmt.Errorf("invalid label name %q", lname)
		}
		s = strings.TrimLeft(s[eq+1:], " \t")
		if len(s) == 0 || s[0] != '"' {
			return nil, "", fmt.Errorf("label %q value not quoted", lname)
		}
		val, rest, err := unquoteLabelValue(s[1:])
		if err != nil {
			return nil, "", fmt.Errorf("label %q: %w", lname, err)
		}
		if _, dup := labels[lname]; dup {
			return nil, "", fmt.Errorf("duplicate label %q", lname)
		}
		labels[lname] = val
		s = strings.TrimLeft(rest, " \t")
		if len(s) > 0 && s[0] == ',' {
			s = s[1:]
		}
	}
}

// unquoteLabelValue reads an escaped label value up to its closing
// quote, undoing the \\ \" \n escapes EscapeLabelValue applies.
func unquoteLabelValue(s string) (string, string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("trailing backslash")
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("bad escape \\%c", s[i])
			}
		case '\n':
			return "", "", fmt.Errorf("raw newline in label value")
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

// parsePromValue parses a sample value including the +Inf/-Inf/NaN
// spellings.
func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN", "Nan", "nan":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// validMetricName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelName reports whether s matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// labelsMinus renders all labels except skip as a canonical sorted
// string (the per-label-set bucket key).
func labelsMinus(labels map[string]string, skip string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != skip {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}
