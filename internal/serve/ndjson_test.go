package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro"
	"repro/internal/stats"
)

// campaignClassJSON is one per-class cell of an NDJSON point line.
type campaignClassJSON struct {
	Class   string  `json:"class"`
	Seconds float64 `json:"seconds"`
	Ratio   float64 `json:"ratio_vs_base"`
}

// campaignPointJSON is one NDJSON line: a grid point with its per-class
// cells in the paper's class order (never a map, so the bytes are
// deterministic).
type campaignPointJSON struct {
	Point        int                 `json:"point"`
	Base         string              `json:"base"`
	Machine      string              `json:"machine"`
	Threads      int                 `json:"threads"`
	Placement    string              `json:"placement"`
	Prec         string              `json:"prec"`
	Cores        int                 `json:"cores"`
	TotalSeconds float64             `json:"total_seconds"`
	MeanRatio    float64             `json:"mean_ratio_vs_base"`
	Classes      []campaignClassJSON `json:"classes"`
}

func campaignPointLine(p repro.CampaignPoint) campaignPointJSON {
	out := campaignPointJSON{
		Point: p.Index, Base: p.Base, Machine: p.Machine,
		Threads: p.Threads, Placement: p.Placement.String(),
		Prec: p.Prec.String(), Cores: p.Cores,
		TotalSeconds: p.TotalSeconds, MeanRatio: p.MeanRatio,
	}
	for _, class := range repro.Classes() {
		cell, ok := p.ByClass[class]
		if !ok {
			continue
		}
		out.Classes = append(out.Classes, campaignClassJSON{
			Class: class.String(), Seconds: cell.Seconds, Ratio: cell.Ratio.Mean,
		})
	}
	return out
}

// encodeViaStdlib renders p the way the pre-planner server did: the
// intermediate struct through json.Encoder. The append encoder must
// reproduce these bytes exactly — the render cache replays them and the
// determinism gate diffs them.
func encodeViaStdlib(t *testing.T, p repro.CampaignPoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(campaignPointLine(p)); err != nil {
		t.Fatalf("stdlib encode: %v", err)
	}
	return buf.Bytes()
}

func ndjsonTestPoint() repro.CampaignPoint {
	classes := repro.Classes()
	p := repro.CampaignPoint{
		Index:        3,
		Base:         "SG2042",
		Machine:      "SG2042/v256",
		Threads:      64,
		Cores:        64,
		TotalSeconds: 12.345678901234567,
		MeanRatio:    1.0625,
		ByClass:      map[repro.Class]repro.CampaignCell{},
	}
	for i, c := range classes {
		p.ByClass[c] = repro.CampaignCell{
			Seconds: 0.5 + float64(i)*0.25,
			Ratio:   stats.Summary{Mean: 1 + float64(i)*0.125},
		}
	}
	return p
}

// TestAppendCampaignPointMatchesStdlib pins the append encoder to
// encoding/json byte-for-byte across representative and adversarial
// points: every float regime json switches format on, strings that
// trigger HTML escaping, control escapes, invalid UTF-8 and the
// JS-hostile line separators.
func TestAppendCampaignPointMatchesStdlib(t *testing.T) {
	base := ndjsonTestPoint()
	cases := map[string]func(p *repro.CampaignPoint){
		"typical": func(p *repro.CampaignPoint) {},
		"empty classes": func(p *repro.CampaignPoint) {
			p.ByClass = nil
		},
		"zero and negative zero": func(p *repro.CampaignPoint) {
			p.TotalSeconds = 0
			p.MeanRatio = math.Copysign(0, -1)
		},
		"tiny switches to e-form": func(p *repro.CampaignPoint) {
			p.TotalSeconds = 1e-7
			p.MeanRatio = 9.999999e-7
		},
		"huge switches to e-form": func(p *repro.CampaignPoint) {
			p.TotalSeconds = 1e21
			p.MeanRatio = 1.23e300
		},
		"boundaries stay f-form": func(p *repro.CampaignPoint) {
			p.TotalSeconds = 1e-6
			p.MeanRatio = 9.999999999999999e20
		},
		"negative values": func(p *repro.CampaignPoint) {
			p.TotalSeconds = -1e-9
			p.MeanRatio = -4.5e22
		},
		"double-digit exponent keeps its digits": func(p *repro.CampaignPoint) {
			p.TotalSeconds = 1e-100
			p.MeanRatio = 1e100
		},
		"shortest-form roundtrip values": func(p *repro.CampaignPoint) {
			p.TotalSeconds = 0.1
			p.MeanRatio = 2.2250738585072014e-308
		},
		"html-escaped labels": func(p *repro.CampaignPoint) {
			p.Base = "a<b>&c"
			p.Machine = "x&y<z>"
		},
		"quotes backslashes and controls": func(p *repro.CampaignPoint) {
			p.Base = "a\"b\\c\nd\re\tf"
			p.Machine = "ctl\x00\x1f\x7f"
		},
		"invalid utf-8 and line separators": func(p *repro.CampaignPoint) {
			p.Base = "bad\xff\xfeutf8"
			p.Machine = "sep\u2028mid\u2029end\u00e9"
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			p := base
			mutate(&p)
			want := encodeViaStdlib(t, p)
			got, err := appendCampaignPoint(nil, p)
			if err != nil {
				t.Fatalf("appendCampaignPoint: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoding diverged:\n got: %q\nwant: %q", got, want)
			}
		})
	}
}

// TestAppendCampaignPointNonFinite mirrors encoding/json: NaN and the
// infinities are encode errors, never bytes.
func TestAppendCampaignPointNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := ndjsonTestPoint()
		p.TotalSeconds = bad
		if _, err := appendCampaignPoint(nil, p); err == nil {
			t.Fatalf("value %v: want encode error", bad)
		}
	}
}

// FuzzAppendJSONString cross-checks the string escaper against
// json.Marshal on arbitrary (including invalid-UTF-8) input.
func FuzzAppendJSONString(f *testing.F) {
	f.Add("plain")
	f.Add("a<b>&c\"d\\e\nf")
	f.Add("bad\xff\xc3\x28utf8")
	f.Add("sep\u2028\u2029\u00e9\U0001F600")
	f.Add("\x00\x01\x1f\x7f")
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Skip()
		}
		got := appendJSONString(nil, s)
		if !bytes.Equal(got, want) {
			t.Fatalf("string escape diverged for %q:\n got: %q\nwant: %q", s, got, want)
		}
	})
}

// FuzzAppendJSONFloat cross-checks the float renderer against
// json.Marshal over arbitrary bit patterns.
func FuzzAppendJSONFloat(f *testing.F) {
	f.Add(math.Float64bits(0))
	f.Add(math.Float64bits(1e-7))
	f.Add(math.Float64bits(1e21))
	f.Add(math.Float64bits(-1e-100))
	f.Add(math.Float64bits(0.1))
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		want, err := json.Marshal(v)
		gotBytes, gotErr := appendJSONFloat(nil, v)
		if err != nil {
			if gotErr == nil {
				t.Fatalf("value %v: stdlib errors, append encoder does not", v)
			}
			return
		}
		if gotErr != nil {
			t.Fatalf("value %v: unexpected error %v", v, gotErr)
		}
		if !bytes.Equal(gotBytes, want) {
			t.Fatalf("float render diverged for %v (bits %x):\n got: %q\nwant: %q",
				v, bits, gotBytes, want)
		}
	})
}

// BenchmarkAppendCampaignPoint measures the per-line cost of the append
// encoder against the stdlib path it replaced.
func BenchmarkAppendCampaignPoint(b *testing.B) {
	p := ndjsonTestPoint()
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = appendCampaignPoint(buf[:0], p)
		if err != nil {
			b.Fatal(err)
		}
	}
}
