package jsonx

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// Writer appends JSON to Buf in encoding/json's exact format: compact
// as json.Marshal writes it, or, with Indent, as a json.Encoder with
// SetIndent("", "  ") writes it (less the Encoder's final newline).
// Strings are escaped for HTML as both do by default.
//
// With Out set, Buf is flushed to Out whenever it passes a few KiB and
// by Flush, so a long document streams through a small buffer.
type Writer struct {
	Buf    []byte
	Indent bool
	Out    io.Writer

	depth int
	first bool // the innermost open object or array has no member yet
	key   bool // a key was just written; its value comes next
	err   error
}

// flushAt is the buffered size past which a Writer with Out flushes.
const flushAt = 4 << 10

// Err returns the first error: an unsupported value (a NaN or infinite
// float, which encoding/json refuses to encode) or a failed write to Out.
func (w *Writer) Err() error { return w.err }

// Flush writes what Buf holds to Out.
func (w *Writer) Flush() error {
	if len(w.Buf) > 0 && w.err == nil {
		_, w.err = w.Out.Write(w.Buf)
	}
	w.Buf = w.Buf[:0]
	return w.err
}

// member starts a key or an array element: a comma after an earlier
// member, and in indented output a new line.
func (w *Writer) member() {
	if w.Out != nil && len(w.Buf) >= flushAt {
		_ = w.Flush() // kept in w.err
	}
	if w.depth == 0 {
		return
	}
	if !w.first {
		w.Buf = append(w.Buf, ',')
	}
	w.first = false
	if w.Indent {
		w.newline(w.depth)
	}
}

const spaces = "                                "

func (w *Writer) newline(depth int) {
	w.Buf = append(w.Buf, '\n')
	for n := 2 * depth; n > 0; n -= len(spaces) {
		w.Buf = append(w.Buf, spaces[:min(n, len(spaces))]...)
	}
}

// value starts a value: right after its key, or as an array element.
func (w *Writer) value() {
	if w.key {
		w.key = false
		return
	}
	w.member()
}

// Key writes an object member's key, which must need no escaping.
func (w *Writer) Key(k string) {
	w.member()
	w.Buf = append(w.Buf, '"')
	w.Buf = append(w.Buf, k...)
	w.Buf = append(w.Buf, '"', ':')
	if w.Indent {
		w.Buf = append(w.Buf, ' ')
	}
	w.key = true
}

// BeginObject opens an object.
func (w *Writer) BeginObject() { w.begin('{') }

// EndObject closes the innermost object.
func (w *Writer) EndObject() { w.end('}') }

// BeginArray opens an array.
func (w *Writer) BeginArray() { w.begin('[') }

// EndArray closes the innermost array.
func (w *Writer) EndArray() { w.end(']') }

func (w *Writer) begin(c byte) {
	w.value()
	w.Buf = append(w.Buf, c)
	w.depth++
	w.first = true
}

// end closes a container; an empty one stays on its line ({} or []).
func (w *Writer) end(c byte) {
	w.depth--
	if w.Indent && !w.first {
		w.newline(w.depth)
	}
	w.Buf = append(w.Buf, c)
	w.first = false
}

// Null writes null.
func (w *Writer) Null() {
	w.value()
	w.Buf = append(w.Buf, "null"...)
}

// Int writes an integer.
func (w *Writer) Int(v int64) {
	w.value()
	w.Buf = strconv.AppendInt(w.Buf, v, 10)
}

// Float writes a float64 as encoding/json does: the shortest
// representation that reads back exactly, in exponent form below 1e-6
// and from 1e21, with no leading zero in a negative exponent. NaN and
// infinities are errors (see Err); null stands in for them.
func (w *Writer) Float(f float64) {
	w.value()
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		w.Buf = append(w.Buf, "null"...)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.Buf = strconv.AppendFloat(w.Buf, f, format, -1, 64)
	if format == 'e' {
		// e-09 to e-9
		b := w.Buf
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			w.Buf = b[:n-1]
		}
	}
}

// String writes a string, escaped as encoding/json escapes it: quote,
// backslash and control bytes, the HTML characters <, > and &, U+2028
// and U+2029, and each invalid UTF-8 byte as U+FFFD.
func (w *Writer) String(s string) {
	w.value()
	w.Buf = appendString(w.Buf, s)
}

const hexDigits = "0123456789abcdef"

// appendString appends s quoted and escaped as Writer.String writes it.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
