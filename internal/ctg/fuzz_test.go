package ctg_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nocsched/internal/ctg"
	"nocsched/internal/ctg/ctgref"
)

// FuzzReadJSON: ReadJSON accepts exactly what the encoding/json
// reference (ctgref.Unmarshaler through a json.Decoder) accepts, and
// decodes it to the same graph field by field; arbitrary input must
// never panic the decoder, and any accepted graph must satisfy every
// structural invariant and round-trip losslessly.
func FuzzReadJSON(f *testing.F) {
	// Seed corpus: a valid graph, plus near-miss mutations.
	g := ctg.New("seed")
	a, _ := g.AddTask("a", []int64{10, 20}, []float64{1, 2}, ctg.NoDeadline)
	b, _ := g.AddTask("b", []int64{30, 40}, []float64{3, 4}, 500)
	g.AddEdge(a, b, 128)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"name":"x","tasks":[],"edges":[]}`)
	f.Add(`{"name":"x","tasks":[{"name":"t","exec_time":[1],"energy":[1],"deadline":-1}],"edges":[]}`)
	f.Add(`{"tasks":[{"exec_time":[1,2],"energy":[1]}]}`)
	f.Add(`garbage`)
	f.Add(`null`)
	// Keys fold as bytes.EqualFold does; unknown keys are skipped.
	f.Add(`{"NAME":"k","Tasks":[{"name":"t","EXEC_TIME":[1],"energy":[1]},{"name":"u","exec_time":[2],"energy":[2]}],` +
		`"edges":[{"ſrc":0,"dst":1,"volume":3,"extra":[{"x":null}]}],"more":{}}`)
	// A repeated array decodes into the elements the earlier one left.
	f.Add(`{"tasks":[{"name":"a","exec_time":[1,2],"energy":[1,2],"deadline":9}],` +
		`"tasks":[{"name":"b"},{"name":"c","exec_time":[3,4],"energy":[3,4]}],"tasks":[null,null]}`)
	f.Add(`{"tasks":[{"name":"a","exec_time":[1,2,3],"energy":[1,2,3]}],` +
		`"tasks":[{"exec_time":[5],"energy":null}],"tasks":[{"exec_time":[null,null,null],"energy":[0,0,0],"deadline":null}]}`)
	// Integers are strict; floats must be in range.
	f.Add(`{"tasks":[{"name":"a","exec_time":[1.0],"energy":[1]}]}`)
	f.Add(`{"tasks":[{"name":"a","exec_time":[1e2],"energy":[1]}]}`)
	f.Add(`{"tasks":[{"name":"a","exec_time":[1],"energy":[1e400]}]}`)
	f.Add(`{"tasks":[{"name":"a","exec_time":[-0],"energy":[-0.0]}]}`)
	// Escapes and invalid UTF-8 decode as encoding/json decodes them.
	f.Add("{\"name\":\"\\ud800\\u00e9\\ud83d\\ude00\xff\\/\",\"tasks\":[{\"name\":\"\\u2028\",\"exec_time\":[1],\"energy\":[1]}]}")
	// Bytes after the value are ignored.
	f.Add(`{"tasks":[{"name":"a","exec_time":[1],"energy":[1]}]} trailing`)

	f.Fuzz(func(t *testing.T, data string) {
		decoded, err := ctg.ReadJSON(strings.NewReader(data))
		var ref ctgref.Unmarshaler
		refErr := json.NewDecoder(strings.NewReader(data)).Decode(&ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ReadJSON error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return // rejected is fine; panics are not
		}
		if err := ctgref.Diff(decoded, ref.G); err != nil {
			t.Fatalf("decoded graph differs from the reference: %v", err)
		}
		if err := decoded.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var out bytes.Buffer
		if err := decoded.WriteJSON(&out); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := ctg.ReadJSON(&out)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if err := ctgref.Diff(again, decoded); err != nil {
			t.Fatalf("round trip changed the graph: %v", err)
		}
	})
}
