package jsonx

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestStringMatchesEncodingJSON: every ASCII byte alone and in context,
// invalid UTF-8, encoded surrogates, U+2028/U+2029 and multi-byte runes
// escape exactly as json.Marshal escapes them.
func TestStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{"", "plain", `<a href="x">&amp;</a>`, "  ", "é😀", "\xff", "\xc3\x28", "\xed\xa0\x80",
		"a\xe2\x80", "\xf0\x9f\x98", strings.Repeat("\x00\x1f\x7f", 3)}
	for c := 0; c < 256; c++ {
		cases = append(cases, string(rune(c)), "x"+string([]byte{byte(c)})+"y")
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestFloatMatchesEncodingJSON: the format switches at 1e-6 and 1e21,
// signed zero, the subnormal and normal extremes and random bit
// patterns all format as json.Marshal formats them; NaN and infinities
// are errors.
func TestFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 9.99999e-7, 1e20, 1e21, 9.999999999999999e20,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1, -1.5, 0.1, 123456789.125, 1e-100, 2.5e-7}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			cases = append(cases, f)
		}
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		var w Writer
		w.Float(f)
		if w.Err() != nil || !bytes.Equal(w.Buf, want) {
			t.Fatalf("Float(%v) = %s (err %v), want %s", f, w.Buf, w.Err(), want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var w Writer
		w.Float(f)
		if w.Err() == nil {
			t.Errorf("Float(%v) wrote %s without an error", f, w.Buf)
		}
	}
}

type nested struct {
	A []int            `json:"a"`
	B map[string]int   `json:"b"`
	C []nested         `json:"c"`
	D *struct{}        `json:"d"`
	E []map[string]int `json:"e"`
}

// TestIndentMatchesEncoder: nested and empty containers at every depth,
// compact and indented, and streamed through Out, match encoding/json.
func TestIndentMatchesEncoder(t *testing.T) {
	v := nested{A: []int{}, B: map[string]int{}, C: []nested{{A: []int{1, 2}, E: []map[string]int{{}}}, {}}, D: &struct{}{}}
	var write func(w *Writer, v nested)
	write = func(w *Writer, v nested) {
		w.BeginObject()
		w.Key("a")
		if v.A == nil {
			w.Null()
		} else {
			w.BeginArray()
			for _, x := range v.A {
				w.Int(int64(x))
			}
			w.EndArray()
		}
		w.Key("b")
		if v.B == nil {
			w.Null()
		} else {
			w.BeginObject()
			w.EndObject()
		}
		w.Key("c")
		if v.C == nil {
			w.Null()
		} else {
			w.BeginArray()
			for _, c := range v.C {
				write(w, c)
			}
			w.EndArray()
		}
		w.Key("d")
		if v.D == nil {
			w.Null()
		} else {
			w.BeginObject()
			w.EndObject()
		}
		w.Key("e")
		if v.E == nil {
			w.Null()
		} else {
			w.BeginArray()
			for range v.E {
				w.BeginObject()
				w.EndObject()
			}
			w.EndArray()
		}
		w.EndObject()
	}
	compact, _ := json.Marshal(v)
	var indented bytes.Buffer
	enc := json.NewEncoder(&indented)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	var c, i Writer
	i.Indent = true
	write(&c, v)
	write(&i, v)
	if !bytes.Equal(c.Buf, compact) {
		t.Errorf("compact:\n%s\nwant\n%s", c.Buf, compact)
	}
	if got := append(i.Buf, '\n'); !bytes.Equal(got, indented.Bytes()) {
		t.Errorf("indented:\n%s\nwant\n%s", got, indented.Bytes())
	}
	// Streamed through a tiny buffer, the bytes are the same.
	var out bytes.Buffer
	s := Writer{Out: &out}
	for n := 0; n < 200; n++ {
		write(&s, v)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := bytes.Repeat(compact, 200); !bytes.Equal(out.Bytes(), want) {
		t.Errorf("streamed output differs from the compact bytes")
	}
}
