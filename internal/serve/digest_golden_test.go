package serve

import "testing"

// goldenGraph is a small two-PE graph: one deadline task, one without,
// and a data edge.
const goldenGraph = `{"name":"golden","tasks":[` +
	`{"name":"src","exec_time":[10,20],"energy":[1.5,0.25],"deadline":400},` +
	`{"name":"sink","exec_time":[-1,35],"energy":[0,3]}],` +
	`"edges":[{"src":0,"dst":1,"volume":4096}]}`

// TestWorkloadDigestGolden pins the content address of a fixed set of
// request bodies, and the ACG-cache key of their platforms, to literal
// values: cached entries and memo keys stay valid across codec changes
// only while these hold. The bodies cover the default platform omitted
// and spelled out, explicit classes, a torus and a yx mesh, names that
// need escaping (HTML characters, control bytes, U+2028/U+2029, a lone
// surrogate and invalid UTF-8), float edge cases and tasks without a
// deadline.
func TestWorkloadDigestGolden(t *testing.T) {
	const (
		defaultDigest = "sha256:daa14cc0de142c658038e0a033bc83df37ded47c86e49ef3d83b466bcfa39f3b"
		defaultKey    = "754cf40202dcac7eca6ee7a6489221e10e9292049911b555110e00cb2bca8bca"
	)
	cases := []struct {
		name, body, digest, pkey string
	}{
		{"default omitted", `{"graph":` + goldenGraph + `}`, defaultDigest, defaultKey},
		{"default spelled out", `{"algorithm":"eas","timeout_ms":250,"platform":` +
			`{"topology":"mesh","width":4,"height":4,"routing":"xy","bandwidth":256},"graph":` + goldenGraph + `}`,
			defaultDigest, defaultKey},
		{"classes", `{"algorithm":"edf","graph":` + goldenGraph + `,"platform":{"width":2,"height":1,"bandwidth":128,` +
			`"classes":[{"name":"big","speed":0.5,"power":4},{"name":"little<&>","speed":1.75,"power":0.35}]}}`,
			"sha256:814bbe1c99690e244717741a0cdeab8abf616692e735110d8cc6c217c4321bec",
			"f6226047753f1e0f5e5e018fcbc287b1b27ac83d1a17e1d4e05ce7053047a46a"},
		{"torus", `{"algorithm":"dls","graph":` + goldenGraph +
			`,"platform":{"topology":"torus","width":2,"height":2,"routing":"xy","bandwidth":64}}`,
			"sha256:799b54c3a673a20a1f7c7c436b40807da5308ad272d9bf38177115dc0e1a50a7",
			"1b0996375e5e75cfec4cafb085f26f36396203cab101a633ff351d3bd9248175"},
		{"yx mesh", `{"algorithm":"eas-base","graph":` + goldenGraph +
			`,"platform":{"width":3,"height":1,"routing":"yx","bandwidth":32}}`,
			"sha256:372f85a3907377c36ad0a3631510e8c7803201efe37052b56983be124d94c864",
			"dad4b80f52d3e653699a4215ea602ab08c417cfe6e038bd81f82a697a4b5eaac"},
		{"escaped names", "{\"graph\":{\"name\":\"<a href=\\\"x\\\">&amp;</a> \\\\ \\/\"," +
			"\"tasks\":[{\"name\":\"\\u0001\\b\\f\\n\\r\\t\\u001f\\u007f\",\"exec_time\":[1],\"energy\":[1]}," +
			"{\"name\":\"   \\u2028 \\ud800 \\udc00\\ud83d\\ude00 \xff\xc3\x28 \xed\xa0\x80 é\",\"exec_time\":[2],\"energy\":[2]}]," +
			"\"edges\":[{\"src\":0,\"dst\":1,\"volume\":0}]},\"platform\":{\"width\":1,\"height\":1,\"bandwidth\":8}}",
			"sha256:220c1ded70edfe277c302afbae4d604133d7f4bb4a37f737180f601546ca5c0d",
			"3dbd5faad124226ab2b24d7f0f466870a06ee76fcb27a3d9bac0f0070da5dcee"},
		{"float edges", `{"graph":{"name":"floats","tasks":[` +
			`{"name":"a","exec_time":[1,2,3,4,5,6,7],"energy":[-0,5e-324,1e-7,1e21,1.7976931348623157e308,0.000001,123456789.125]},` +
			`{"name":"b","exec_time":[1,2,3,4,5,6,7],"energy":[9.999999999999999e20,1e-6,2.5e-7,0.1,1e300,4.9406564584124654e-324,-0.0]}],` +
			`"edges":[]},"platform":{"width":7,"height":1,"bandwidth":1}}`,
			"sha256:1ccfad8256ddc8302c10eedb28040d5bccb10205be9e7ea2aa45e7ece988c171",
			"6cfb1f897b77e8896ec2a6fdf7aa949fb33890517d6cd141f4e70ddefabbc30d"},
		{"no deadlines, no edges", `{"graph":{"name":"free","tasks":[` +
			`{"name":"only","exec_time":[3,4],"energy":[0.5,0.75]}],"edges":null},` +
			`"platform":{"topology":"honeycomb","width":2,"height":1,"bandwidth":16}}`,
			"sha256:e5c9bf3857124e06d07702f297d6eece9969e991fd20c6a09f6289b0d8eebff5",
			"d3f14733749fc9c4147a55d8f6f7128903f46edbb8dd9dc3a55370437fffac3d"},
	}
	for _, c := range cases {
		digest, pkey := keysOf(t, []byte(c.body))
		if digest != c.digest || pkey != c.pkey {
			t.Errorf("%s: digest %s, platform key %s; want %s, %s", c.name, digest, pkey, c.digest, c.pkey)
		}
	}
}
