package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"nocsched/internal/ctg/ctgref"
	"nocsched/internal/noc"
)

// refRequest is Request as encoding/json decodes it, with the graph
// decoded by the encoding/json reference (ctgref) rather than by ctg's
// own decoder.
type refRequest struct {
	Graph     *ctgref.Unmarshaler `json:"graph"`
	Platform  *noc.PlatformSpec   `json:"platform,omitempty"`
	Algorithm string              `json:"algorithm,omitempty"`
	TimeoutMS int64               `json:"timeout_ms,omitempty"`
}

// checkDecode holds decodeRequest to the reference the handler used
// before it, json.NewDecoder(bytes.NewReader(body)).Decode: the same
// accept/reject result, and on acceptance the same request, the graph
// compared field by field and the platform deeply (a nil class list
// differs from an empty one). It reports whether body was accepted.
func checkDecode(t *testing.T, body []byte) bool {
	t.Helper()
	var want refRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	var got Request
	err := decodeRequest(body, &got)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decodeRequest error %v, reference error %v\nbody %q", err, wantErr, body)
	}
	if err != nil {
		return false
	}
	if got.Algorithm != want.Algorithm || got.TimeoutMS != want.TimeoutMS {
		t.Fatalf("algorithm %q timeout %d, reference %q %d", got.Algorithm, got.TimeoutMS, want.Algorithm, want.TimeoutMS)
	}
	if !reflect.DeepEqual(got.Platform, want.Platform) {
		t.Fatalf("platform %#v, reference %#v", got.Platform, want.Platform)
	}
	if (got.Graph == nil) != (want.Graph == nil) {
		t.Fatalf("graph %v, reference %v", got.Graph, want.Graph)
	}
	if got.Graph != nil {
		if err := ctgref.Diff(got.Graph, want.Graph.G); err != nil {
			t.Fatalf("graph differs from the reference: %v", err)
		}
	}
	return true
}

// decodeSeeds are the named behaviours of encoding/json's decoder that
// decodeRequest must share, each with a body that shows it; accept says
// whether the reference accepts it.
var decodeSeeds = []struct {
	name, body string
	accept     bool
}{
	{"fold ascii", `{"GRAPH":{"Name":"g","TASKS":[{"Name":"a","Exec_Time":[1],"ENERGY":[2]}]},"Algorithm":"edf","TIMEOUT_MS":5}`, true},
	{"fold long s", `{"graph":{"tasks":[{"name":"a","exec_time":[1],"energy":[1]},{"name":"b","exec_time":[1],"energy":[1]}],` +
		`"edges":[{"ſrc":0,"dst":1,"volume":2}]},"platform":{"topology":"mesh","width":1,"height":1,"bandwidth":1}}`, true},
	{"fold long s twice", `{"platform":{"width":1,"claſſes":[{"name":"k","ſpeed":1.5,"SPEED":2.5,"power":1}]},"algorithm":"eas"}`, true},
	{"kelvin matches no field", "{\"platform\":{\"\u212aind\":1,\"width\":1}}", true},
	{"unknown keys", `{"x":[1,{"y":null},"z",true,false,-1.5e3],"graph":{"tasks":[{"name":"a","exec_time":[1],"energy":[1],"q":{}}],` +
		`"r":[]},"platform":{"width":1,"height":1,"bandwidth":1,"s":"t"}}`, true},
	{"platform merges", `{"platform":{"topology":"torus","width":2,"classes":[{"name":"a","speed":1,"power":2},{"name":"b"}]},` +
		`"platform":{"height":2,"bandwidth":9,"classes":[{"speed":3}]}}`, true},
	{"array replaces", `{"platform":{"classes":[{"name":"a"},{"name":"b"},{"name":"c"}]},"platform":{"classes":[{"power":1}]},` +
		`"platform":{"classes":[null,null,null,null]}}`, true},
	{"empty array", `{"platform":{"classes":[{"name":"a"}]},"platform":{"classes":[]}}`, true},
	{"tasks merge", `{"graph":{"tasks":[{"name":"a","exec_time":[1,2],"energy":[1,2],"deadline":7}],` +
		`"tasks":[{"name":"b"},{"name":"c","exec_time":[3,4],"energy":[3,4]}]}}`, true},
	{"null is a no-op", `{"algorithm":"dls","algorithm":null,"timeout_ms":3,"timeout_ms":null,"graph":{"name":"n","name":null,` +
		`"tasks":[{"name":"a","exec_time":[1,2],"energy":[1,2],"deadline":5,"deadline":null}]}}`, true},
	{"null clears", `{"graph":{"tasks":[{"name":"a","exec_time":[1],"energy":[1]}]},"graph":null,"platform":{"width":1},"platform":null}`, true},
	{"null body", `null`, true},
	{"null body trailing", `nullgarbage`, true},
	{"null element", `{"graph":{"tasks":[null]}}`, false},
	{"float for int", `{"timeout_ms":1.0}`, false},
	{"exponent for int", `{"timeout_ms":1e2}`, false},
	{"int out of range", `{"timeout_ms":9223372036854775808}`, false},
	{"int at range", `{"timeout_ms":-9223372036854775808}`, true},
	{"width out of range", `{"platform":{"width":1e0}}`, false},
	{"float out of range", `{"platform":{"classes":[{"speed":1e309}]}}`, false},
	{"float underflow", `{"platform":{"classes":[{"speed":1e-400,"power":-0}]}}`, true},
	{"escapes", "{\"algorithm\":\"\\u0065\\u0061s\",\"graph\":{\"name\":\"\\ud800\\udbff\\udfff\\u00e9\\t\\/\\\"\xff\xc3\",\"tasks\":" +
		"[{\"name\":\"\\ud83d\\ude00\\ud800x\\u2028\",\"exec_time\":[1],\"energy\":[1]}]}}", true},
	{"escaped key", `{"\u0067raph":null,"algorith\u006d":"edf","TIMEOUT\u005fms":4}`, true},
	{"bad escape", `{"algorithm":"\x"}`, false},
	{"bad unicode escape", `{"algorithm":"\ud800\u12"}`, false},
	{"control byte", "{\"algorithm\":\"a\x01\"}", false},
	{"trailing bytes", `{"algorithm":"edf"} {"algorithm":`, true},
	{"trailing comma", `{"algorithm":"edf",}`, false},
	{"wrong type", `{"algorithm":5}`, false},
	{"graph wrong type", `{"graph":[]}`, false},
	{"graph null tasks", `{"graph":{"tasks":null}}`, false},
	{"platform wrong type", `{"platform":"mesh"}`, false},
	{"number body", `5`, false},
	{"empty body", ``, false},
	{"bad literal", `{"algorithm":nul}`, false},
	{"leading zero", `{"timeout_ms":01}`, false},
	{"bare minus", `{"timeout_ms":-}`, false},
	{"cycle", `{"graph":{"tasks":[{"name":"a","exec_time":[1],"energy":[1]},{"name":"b","exec_time":[1],"energy":[1]}],` +
		`"edges":[{"src":0,"dst":1,"volume":0},{"src":1,"dst":0,"volume":0}]}}`, false},
	{"depth 10000", `{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, true},
	{"depth 10001", `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, false},
}

// TestDecodeRequestBehaviours runs each named seed through the
// differential and checks the reference's verdict, so a seed that stops
// showing its behaviour is noticed.
func TestDecodeRequestBehaviours(t *testing.T) {
	for _, c := range decodeSeeds {
		t.Run(c.name, func(t *testing.T) {
			if got := checkDecode(t, []byte(c.body)); got != c.accept {
				t.Fatalf("accepted = %v, want %v", got, c.accept)
			}
		})
	}
}

// FuzzDecodeRequest: decodeRequest against encoding/json over
// arbitrary bodies (see checkDecode). Every decode error is a 400
// bad_request, so equal verdicts give equal HTTP error classes.
func FuzzDecodeRequest(f *testing.F) {
	valid, _, _ := testWorkload(f, 2, 8, "edf")
	f.Add(valid)
	f.Add([]byte(`{"graph":` + goldenGraph + `,"platform":{"width":2,"height":1,"bandwidth":8}}`))
	for _, c := range decodeSeeds {
		if len(c.body) < 1000 {
			f.Add([]byte(c.body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}
