package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); got != c.want {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if got := Min(xs); got != 1 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 5 {
		t.Errorf("Max = %v", got)
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be +/-Inf")
	}
}

func TestSignedRatioAnchors(t *testing.T) {
	// The paper's scale: 0 = same, +1 = double performance, -1 = half.
	cases := []struct{ r, want float64 }{
		{1, 0},
		{2, 1},
		{0.5, -1},
		{40, 39}, // "memory set ... ran 40 times faster"
		{0.25, -3},
	}
	for _, c := range cases {
		if got := SignedRatio(c.r); !almostEq(got, c.want, 1e-12) {
			t.Errorf("SignedRatio(%v) = %v, want %v", c.r, got, c.want)
		}
	}
	if !math.IsNaN(SignedRatio(0)) || !math.IsNaN(SignedRatio(-1)) {
		t.Error("SignedRatio of non-positive ratios should be NaN")
	}
}

func TestSignedRatioAntisymmetry(t *testing.T) {
	f := func(x float64) bool {
		r := math.Abs(x)
		if r < 1e-6 || r > 1e6 || math.IsNaN(r) {
			return true // outside the meaningful domain
		}
		return almostEq(SignedRatio(1/r), -SignedRatio(r), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignedRatioRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		r := math.Abs(x)
		if r < 1e-6 || r > 1e6 || math.IsNaN(r) {
			return true
		}
		// The inverse of the paper's scale: v >= 0 is v+1 times
		// faster, v < 0 is 1-v times slower.
		v, back := SignedRatio(r), 0.0
		if v >= 0 {
			back = v + 1
		} else {
			back = 1 / (1 - v)
		}
		return almostEq(back, r, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignedRatioMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		ra, rb := math.Abs(a), math.Abs(b)
		if ra < 1e-6 || rb < 1e-6 || ra > 1e6 || rb > 1e6 {
			return true
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		return SignedRatio(ra) <= SignedRatio(rb)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpeedupAndEfficiency(t *testing.T) {
	// A speed up of 4 (t1/tn = 10/2.5) on 8 threads.
	if pe := ParallelEfficiency(10/2.5, 8); pe != 0.5 {
		t.Errorf("PE = %v, want 0.5", pe)
	}
	// Super-linear PE must not be clamped (Table 3 reports 1.40).
	if pe := ParallelEfficiency(11.2, 8); !almostEq(pe, 1.4, 1e-12) {
		t.Errorf("super-linear PE = %v, want 1.4", pe)
	}
	if !math.IsNaN(ParallelEfficiency(1, 0)) {
		t.Error("PE with zero threads should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 8})
	if s.N != 3 || s.Min != 2 || s.Max != 8 {
		t.Errorf("Summarize basic fields wrong: %+v", s)
	}
	if !almostEq(s.Mean, 14.0/3, 1e-12) {
		t.Errorf("Summarize mean = %v", s.Mean)
	}
	if !almostEq(s.SignedMin(), 1, 1e-12) || !almostEq(s.SignedMax(), 7, 1e-12) {
		t.Errorf("signed whiskers wrong: %v %v", s.SignedMin(), s.SignedMax())
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Errorf("empty summary N = %d", empty.N)
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestSummaryWhiskersBracketMean(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			r := math.Abs(x)
			if r > 1e-6 && r < 1e6 && !math.IsNaN(r) {
				xs = append(xs, r)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
