// Package jsonx is the JSON codec of schedd's request path, written
// by hand so that a request is decoded, digested and rendered in one
// pass each, without reflection.
//
// Decoder reads one JSON value from a byte slice with exactly the
// acceptance rules and value semantics of
// json.NewDecoder(bytes.NewReader(data)).Decode: the same syntax, the
// same nesting limit, keys matched case-insensitively as
// bytes.EqualFold does, unknown keys skipped, null a no-op on strings
// and numbers, a repeated key decoding into what the earlier one left,
// strings unescaped with invalid UTF-8 and lone surrogates replaced by
// U+FFFD, integers parsed strictly, and bytes after the value ignored.
// Writer appends encoding/json's exact output bytes, compact or
// indented. encoding/json stays the reference the tests compare both
// against.
package jsonx

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: 10000 open objects and
// arrays are accepted, one more is a syntax error.
const maxDepth = 10000

// Error is a decoding failure: malformed JSON, a value of the wrong
// type for its destination, or a number out of its destination's range.
type Error struct {
	Offset int // byte offset in the input
	Msg    string
}

func (e *Error) Error() string { return fmt.Sprintf("json: %s (offset %d)", e.Msg, e.Offset) }

// Decoder reads JSON values from a byte slice. Its methods each consume
// one value and return the first error; a Decoder that has returned an
// error must not be used further.
type Decoder struct {
	data  []byte
	pos   int
	depth int
	str   []byte // unescaping scratch
}

// NewDecoder returns a Decoder reading data from its start.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

func (d *Decoder) errorf(format string, args ...any) error {
	return &Error{Offset: d.pos, Msg: fmt.Sprintf(format, args...)}
}

// syntax reports the byte at the read position as unexpected.
func (d *Decoder) syntax(context string) error {
	if d.pos >= len(d.data) {
		return d.errorf("unexpected end of JSON input")
	}
	return d.errorf("invalid character %q %s", d.data[d.pos], context)
}

// typeError reports a value of the wrong kind for its destination.
func (d *Decoder) typeError(want string) error {
	return d.errorf("cannot decode %s into %s", kindOf(d.data[d.pos]), want)
}

func kindOf(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	}
	return "number"
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// peek skips whitespace and returns the next byte, or 0 at the end of
// the input.
func (d *Decoder) peek() byte {
	for d.pos < len(d.data) && isSpace(d.data[d.pos]) {
		d.pos++
	}
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// End reports an error unless only whitespace follows the value read.
func (d *Decoder) End() error {
	if d.peek() != 0 {
		return d.syntax("after top-level value")
	}
	return nil
}

// Null consumes a null literal if one comes next.
func (d *Decoder) Null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

func (d *Decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.pos >= len(d.data) || d.data[d.pos] != lit[i] {
			return d.syntax("in literal " + lit)
		}
		d.pos++
	}
	return nil
}

func (d *Decoder) open() error {
	d.depth++
	if d.depth > maxDepth {
		return d.errorf("exceeded max depth")
	}
	d.pos++
	return nil
}

// Object reads an object, calling member with each key (unescaped;
// valid only during the call), which must consume the member's value.
// A null reads as no members, and null reports it. Any other value is
// a type error.
func (d *Decoder) Object(member func(key []byte) error) (null bool, err error) {
	switch d.peek() {
	case 'n':
		return true, d.literal("null")
	case '{':
	case 0:
		return false, d.syntax("")
	default:
		return false, d.value("object")
	}
	if err := d.open(); err != nil {
		return false, err
	}
	if d.peek() == '}' {
		d.pos++
		d.depth--
		return false, nil
	}
	for {
		if d.peek() != '"' {
			return false, d.syntax("looking for beginning of object key string")
		}
		key, err := d.quoted()
		if err != nil {
			return false, err
		}
		if d.peek() != ':' {
			return false, d.syntax("after object key")
		}
		d.pos++
		if err := member(key); err != nil {
			return false, err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			d.depth--
			return false, nil
		default:
			return false, d.syntax("after object key:value pair")
		}
	}
}

// Array reads an array, calling elem with each element's index; elem
// must consume the element. It returns the element count; a null
// reads as no elements, and null reports it. Any other value is a
// type error.
func (d *Decoder) Array(elem func(i int) error) (n int, null bool, err error) {
	switch d.peek() {
	case 'n':
		return 0, true, d.literal("null")
	case '[':
	case 0:
		return 0, false, d.syntax("")
	default:
		return 0, false, d.value("array")
	}
	if err := d.open(); err != nil {
		return 0, false, err
	}
	if d.peek() == ']' {
		d.pos++
		d.depth--
		return 0, false, nil
	}
	for {
		if err := elem(n); err != nil {
			return n, false, err
		}
		n++
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			d.depth--
			return n, false, nil
		default:
			return n, false, d.syntax("after array element")
		}
	}
}

// value is the error for a value that cannot decode into want: a
// syntax error if the value is malformed, a type error if not.
func (d *Decoder) value(want string) error {
	at := d.pos
	if err := d.Skip(); err != nil {
		return err
	}
	d.pos = at
	return d.typeError(want)
}

// Field returns the index of the name key matches — exactly, or else
// case-insensitively as bytes.EqualFold compares — or -1.
func Field(key []byte, names ...string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return i
		}
	}
	return -1
}

// String decodes a string into *s. A null leaves *s as it is.
func (d *Decoder) String(s *string) error {
	switch d.peek() {
	case '"':
		b, err := d.quoted()
		if err != nil {
			return err
		}
		*s = string(b)
		return nil
	case 'n':
		return d.literal("null")
	case 0:
		return d.syntax("")
	}
	return d.value("string")
}

// number consumes a number literal and returns its bytes.
func (d *Decoder) number() ([]byte, error) {
	start := d.pos
	data := d.data
	i := d.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		for i++; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		}
	default:
		d.pos = i
		return nil, d.syntax("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i >= len(data) || data[i] < '0' || data[i] > '9' {
			d.pos = i
			return nil, d.syntax("after decimal point in numeric literal")
		}
		for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || data[i] < '0' || data[i] > '9' {
			d.pos = i
			return nil, d.syntax("in exponent of numeric literal")
		}
		for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		}
	}
	d.pos = i
	return data[start:i], nil
}

func isNumberStart(c byte) bool { return c == '-' || ('0' <= c && c <= '9') }

// Int64 decodes an integer into *v: a number with a fraction or an
// exponent, or out of range, is an error. A null leaves *v as it is.
func (d *Decoder) Int64(v *int64) error { return d.integer(v, 64) }

// Int decodes an integer into *v as Int64 does, within int's range.
func (d *Decoder) Int(v *int) error {
	n := int64(*v)
	err := d.integer(&n, strconv.IntSize)
	*v = int(n)
	return err
}

func (d *Decoder) integer(v *int64, bits int) error {
	c := d.peek()
	if c == 'n' {
		return d.literal("null")
	}
	if !isNumberStart(c) {
		if c == 0 {
			return d.syntax("")
		}
		return d.value("integer")
	}
	at := d.pos
	b, err := d.number()
	if err != nil {
		return err
	}
	if n, ok := shortInt(b); ok {
		*v = n
		return nil
	}
	n, err := strconv.ParseInt(string(b), 10, bits)
	if err != nil {
		d.pos = at
		return d.errorf("cannot decode number %s into a %d-bit integer", b, bits)
	}
	*v = n
	return nil
}

// shortInt parses a number literal of at most 18 digits, with no
// fraction or exponent, which every int64 holds; ok is false for any
// other literal, which strconv.ParseInt then judges.
func shortInt(b []byte) (n int64, ok bool) {
	digits := b
	if len(b) > 0 && b[0] == '-' {
		digits = b[1:]
	}
	if len(digits) == 0 || len(digits) > 18 || strconv.IntSize < 64 {
		return 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if len(digits) < len(b) {
		n = -n
	}
	return n, true
}

// Float64 decodes a number into *v; a number beyond float64's range is
// an error. A null leaves *v as it is.
func (d *Decoder) Float64(v *float64) error {
	c := d.peek()
	if c == 'n' {
		return d.literal("null")
	}
	if !isNumberStart(c) {
		if c == 0 {
			return d.syntax("")
		}
		return d.value("number")
	}
	at := d.pos
	b, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		d.pos = at
		return d.errorf("cannot decode number %s into a float64", b)
	}
	*v = f
	return nil
}

// Elem returns element i of *s for an array element to decode into,
// as encoding/json reuses a slice: within the capacity the element
// keeps what an earlier decode left there; beyond it the slice grows
// and every new element, spare capacity included, starts as zero.
// Elements must be requested in order from 0, and Trim called after
// the last.
func Elem[T any](s *[]T, i int, zero T) *T {
	if i < cap(*s) {
		*s = (*s)[:i+1]
	} else {
		*s = append((*s)[:i], zero)
		spare := (*s)[i+1 : cap(*s)]
		for j := range spare {
			spare[j] = zero
		}
	}
	return &(*s)[i]
}

// Trim ends an array decoded through Elem: n elements, a null array
// leaving nil and an empty one a non-nil empty slice, as encoding/json
// leaves them.
func Trim[T any](s *[]T, n int, null bool) {
	switch {
	case null:
		*s = nil
	case n == 0:
		*s = []T{}
	default:
		*s = (*s)[:n]
	}
}

// Int64s decodes an array of integers into *s with encoding/json's
// slice semantics (see Elem and Trim), parsing into *scratch first so
// that a fresh slice is allocated once, at its exact length.
func (d *Decoder) Int64s(s *[]int64, scratch *[]int64) error {
	return numbers(d, s, scratch, (*Decoder).Int64)
}

// Float64s decodes an array of numbers into *s as Int64s does.
func (d *Decoder) Float64s(s *[]float64, scratch *[]float64) error {
	return numbers(d, s, scratch, (*Decoder).Float64)
}

// numbers implements Int64s and Float64s. A null element keeps what
// the slice held at its index (zero beyond its capacity), as it would
// if decoded in place.
func numbers[T int64 | float64](d *Decoder, s *[]T, scratch *[]T, parse func(*Decoder, *T) error) error {
	old := (*s)[:cap(*s)]
	buf := (*scratch)[:0]
	n, null, err := d.Array(func(i int) error {
		var v T
		if i < len(old) {
			v = old[i]
		}
		buf = append(buf, v)
		return parse(d, &buf[i])
	})
	*scratch = buf
	if err != nil {
		return err
	}
	switch {
	case null || n == 0:
		Trim(s, 0, null)
	case n <= len(old):
		*s = old[:n]
		copy(*s, buf)
	default:
		*s = append([]T(nil), buf...)
	}
	return nil
}

// Skip consumes one value of any kind, checking its syntax.
func (d *Decoder) Skip() error {
	switch c := d.peek(); {
	case c == '{':
		_, err := d.Object(func([]byte) error { return d.Skip() })
		return err
	case c == '[':
		_, _, err := d.Array(func(int) error { return d.Skip() })
		return err
	case c == '"':
		_, err := d.quoted()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case isNumberStart(c):
		_, err := d.number()
		return err
	}
	return d.syntax("looking for beginning of value")
}

// quoted consumes a string literal and returns its unescaped bytes,
// which alias the input or the decoder's scratch until the next call.
func (d *Decoder) quoted() ([]byte, error) {
	d.pos++ // opening quote
	start := d.pos
	data := d.data
	// Fast path: no escapes and valid UTF-8 need no copy.
	i := start
	for i < len(data) {
		c := data[i]
		if c == '"' {
			d.pos = i + 1
			return data[start:i], nil
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	b := append(d.str[:0], data[start:i]...)
	for {
		if i >= len(data) {
			d.pos = i
			return nil, d.syntax("in string literal")
		}
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			d.str = b
			return b, nil
		case c == '\\':
			i++
			if i >= len(data) {
				d.pos = i
				return nil, d.syntax("in string escape code")
			}
			switch c := data[i]; c {
			case '"', '\\', '/':
				b = append(b, c)
				i++
			case 'b', 'f', 'n', 'r', 't':
				b = append(b, controlEscapes[c])
				i++
			case 'u':
				r, ok := hex4(data[i+1:])
				if !ok {
					d.pos = i
					return nil, d.syntax(`in \u hexadecimal character escape`)
				}
				i += 5
				if utf16.IsSurrogate(r) {
					// A pair only when a second \u escape follows
					// and completes it; otherwise U+FFFD, and the
					// second escape is read on its own.
					r2 := rune(-1)
					if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
						if v, ok := hex4(data[i+2:]); ok {
							r2 = v
						}
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						i += 6
						r = dec
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				d.pos = i
				return nil, d.syntax("in string escape code")
			}
		case c < ' ':
			d.pos = i
			return nil, d.syntax("in string literal")
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
}

// controlEscapes maps the letter of a one-letter control escape to
// its byte.
var controlEscapes = [256]byte{'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 parses the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return 0, false
		}
		r = r*16 + rune(c)
	}
	return r, true
}
