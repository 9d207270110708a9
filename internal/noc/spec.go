package noc

import (
	"fmt"
	"io"

	"nocsched/internal/jsonx"
)

// PlatformSpec is the JSON description of a platform, for CLI use:
//
//	{
//	  "topology": "mesh",            // mesh | torus | honeycomb
//	  "width": 4, "height": 4,
//	  "routing": "xy",               // xy | yx (mesh only)
//	  "bandwidth": 256,              // bits per time unit
//	  "classes": [                   // optional; cycled over tiles.
//	    {"name": "cpu-hp", "speed": 0.5, "power": 4.0},
//	    {"name": "arm-lp", "speed": 1.8, "power": 0.35}
//	  ]
//	}
//
// An omitted classes list selects the standard heterogeneous library.
type PlatformSpec struct {
	Topology  string      `json:"topology"`
	Width     int         `json:"width"`
	Height    int         `json:"height"`
	Routing   string      `json:"routing,omitempty"`
	Bandwidth int64       `json:"bandwidth"`
	Classes   []ClassSpec `json:"classes,omitempty"`
}

// ClassSpec is one PE class row of a PlatformSpec.
type ClassSpec struct {
	Name  string  `json:"name"`
	Speed float64 `json:"speed"`
	Power float64 `json:"power"`
}

// Build constructs the platform the spec describes.
func (spec *PlatformSpec) Build() (*Platform, error) {
	var (
		topo Topology
		err  error
	)
	scheme := RouteXY
	switch spec.Routing {
	case "", "xy":
	case "yx":
		scheme = RouteYX
	default:
		return nil, fmt.Errorf("noc: spec: unknown routing %q", spec.Routing)
	}
	switch spec.Topology {
	case "", "mesh":
		topo, err = NewMesh(spec.Width, spec.Height, scheme)
	case "torus":
		if spec.Routing == "yx" {
			return nil, fmt.Errorf("noc: spec: torus supports xy routing only")
		}
		topo, err = NewTorus(spec.Width, spec.Height)
	case "honeycomb":
		if spec.Routing == "yx" {
			return nil, fmt.Errorf("noc: spec: honeycomb has no yx routing")
		}
		topo, err = NewHoneycomb(spec.Width, spec.Height)
	default:
		return nil, fmt.Errorf("noc: spec: unknown topology %q", spec.Topology)
	}
	if err != nil {
		return nil, err
	}
	lib := StandardClasses
	if len(spec.Classes) > 0 {
		lib = make([]PEClass, len(spec.Classes))
		for i, c := range spec.Classes {
			lib[i] = PEClass{Name: c.Name, SpeedFactor: c.Speed, PowerFactor: c.Power}
		}
	}
	classes := make([]PEClass, topo.NumTiles())
	for i := range classes {
		classes[i] = lib[i%len(lib)]
	}
	return NewPlatform(topo, classes, spec.Bandwidth)
}

// ReadPlatformSpec decodes and builds a platform from JSON. Bytes
// after the spec are ignored.
func ReadPlatformSpec(r io.Reader) (*Platform, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("noc: spec: read: %w", err)
	}
	var spec PlatformSpec
	if err := spec.DecodeJSON(jsonx.NewDecoder(data)); err != nil {
		return nil, fmt.Errorf("noc: spec: decode: %w", err)
	}
	return spec.Build()
}

// DecodeJSON reads one spec value from d over what spec already holds,
// exactly as encoding/json decodes into a PlatformSpec: a null changes
// nothing, and a repeated key decodes into what the earlier one left.
func (spec *PlatformSpec) DecodeJSON(d *jsonx.Decoder) error {
	_, err := d.Object(func(key []byte) error {
		switch jsonx.Field(key, "topology", "width", "height", "routing", "bandwidth", "classes") {
		case 0:
			return d.String(&spec.Topology)
		case 1:
			return d.Int(&spec.Width)
		case 2:
			return d.Int(&spec.Height)
		case 3:
			return d.String(&spec.Routing)
		case 4:
			return d.Int64(&spec.Bandwidth)
		case 5:
			n, null, err := d.Array(func(i int) error {
				return jsonx.Elem(&spec.Classes, i, ClassSpec{}).decodeJSON(d)
			})
			jsonx.Trim(&spec.Classes, n, null)
			return err
		}
		return d.Skip()
	})
	return err
}

func (c *ClassSpec) decodeJSON(d *jsonx.Decoder) error {
	_, err := d.Object(func(key []byte) error {
		switch jsonx.Field(key, "name", "speed", "power") {
		case 0:
			return d.String(&c.Name)
		case 1:
			return d.Float64(&c.Speed)
		case 2:
			return d.Float64(&c.Power)
		}
		return d.Skip()
	})
	return err
}

// AppendJSON appends the spec to w as json.Marshal writes it: routing
// and classes are omitted when empty.
func (spec *PlatformSpec) AppendJSON(w *jsonx.Writer) {
	w.BeginObject()
	w.Key("topology")
	w.String(spec.Topology)
	w.Key("width")
	w.Int(int64(spec.Width))
	w.Key("height")
	w.Int(int64(spec.Height))
	if spec.Routing != "" {
		w.Key("routing")
		w.String(spec.Routing)
	}
	w.Key("bandwidth")
	w.Int(spec.Bandwidth)
	if len(spec.Classes) > 0 {
		w.Key("classes")
		w.BeginArray()
		for _, c := range spec.Classes {
			w.BeginObject()
			w.Key("name")
			w.String(c.Name)
			w.Key("speed")
			w.Float(c.Speed)
			w.Key("power")
			w.Float(c.Power)
			w.EndObject()
		}
		w.EndArray()
	}
	w.EndObject()
}
