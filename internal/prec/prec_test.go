package prec

import "testing"

func TestBytesAndBits(t *testing.T) {
	if F32.Bytes() != 4 || F64.Bytes() != 8 {
		t.Error("element sizes wrong")
	}
	if F32.Bits() != 32 || F64.Bits() != 64 {
		t.Error("bit widths wrong")
	}
}

func TestLanes(t *testing.T) {
	cases := []struct {
		p     Precision
		width int
		want  int
	}{
		{F32, 128, 4}, // RVV on the C920
		{F64, 128, 2},
		{F32, 256, 8}, // AVX2
		{F64, 256, 4},
		{F32, 512, 16}, // AVX-512
		{F64, 512, 8},
		{F64, 0, 1},  // no vector unit
		{F64, 32, 1}, // narrower than the element: still one lane
	}
	for _, c := range cases {
		if got := c.p.Lanes(c.width); got != c.want {
			t.Errorf("%v.Lanes(%d) = %d, want %d", c.p, c.width, got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	if F32.String() != "FP32" || F64.String() != "FP64" {
		t.Error("precision names must match the paper's FP32/FP64")
	}
	if Precision(9).String() == "" {
		t.Error("unknown precision should still render")
	}
}

func TestBoth(t *testing.T) {
	if len(Both) != 2 || Both[0] != F32 || Both[1] != F64 {
		t.Error("Both should list F32 then F64")
	}
}

func TestBytesPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid precision should panic")
		}
	}()
	_ = Precision(42).Bytes()
}
