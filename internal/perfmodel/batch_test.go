package perfmodel_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/autovec"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/prec"
	"repro/internal/suite"
)

// batchConfigs spans the configuration space the experiments exercise:
// every machine kind (RVV, no-vector, the x86 ISAs), thread counts
// from one to full occupancy, all placements, both precisions, every
// compiler/mode pair, scalar builds and problem-size overrides.
func batchConfigs() []perfmodel.Config {
	var cfgs []perfmodel.Config
	add := func(c perfmodel.Config) { cfgs = append(cfgs, c) }
	for _, threads := range []int{1, 2, 8, 32, 64} {
		for _, pol := range placement.Policies {
			for _, p := range prec.Both {
				add(perfmodel.Config{Machine: machine.SG2042(), Threads: threads,
					Placement: pol, Prec: p, Compiler: autovec.GCCXuanTie, Mode: autovec.VLS})
			}
		}
	}
	for _, mode := range []autovec.Mode{autovec.VLA, autovec.VLS} {
		add(perfmodel.Config{Machine: machine.SG2042(), Threads: 1,
			Placement: placement.Block, Prec: prec.F32, Compiler: autovec.Clang16, Mode: mode})
	}
	scalar := perfmodel.Config{Machine: machine.SG2042(), Threads: 1,
		Placement: placement.Block, Prec: prec.F64, Compiler: autovec.GCCXuanTie,
		Mode: autovec.VLS, ScalarOnly: true}
	add(scalar)
	sized := scalar
	sized.ScalarOnly = false
	sized.ProblemN = 512
	add(sized)
	add(perfmodel.Config{Machine: machine.VisionFiveV1(), Threads: 1,
		Placement: placement.Block, Prec: prec.F64, Compiler: autovec.GCCXuanTie,
		Mode: autovec.VLS})
	for _, m := range machine.X86() {
		add(perfmodel.Config{Machine: m, Threads: m.Cores, Placement: placement.Block,
			Prec: prec.F32, Compiler: autovec.GCCx86, Mode: autovec.VLS})
	}
	// Multi-socket and multi-node topologies: placements that stay on
	// one package, straddle the socket link, and straddle the node
	// network all go through the same batched-vs-single contract.
	x2 := machine.SG2042x2()
	for _, threads := range []int{8, 64, 128} {
		for _, pol := range placement.Policies {
			add(perfmodel.Config{Machine: x2, Threads: threads, Placement: pol,
				Prec: prec.F64, Compiler: autovec.GCCXuanTie, Mode: autovec.VLS})
		}
	}
	fused, err := machine.SG2042().WithNodes(2)
	if err != nil {
		panic(err)
	}
	add(perfmodel.Config{Machine: fused, Threads: 128, Placement: placement.CyclicNUMA,
		Prec: prec.F32, Compiler: autovec.GCCXuanTie, Mode: autovec.VLS})
	return cfgs
}

// TestSuiteTimesMatchesKernelTime is the batched API's contract: for
// every kernel and every configuration shape the study uses, the
// shared-context evaluation must be bit-identical — not just close —
// to the one-shot KernelTime path, term by term.
func TestSuiteTimesMatchesKernelTime(t *testing.T) {
	mdl := perfmodel.New()
	specs := suite.All()
	for _, cfg := range batchConfigs() {
		batched, err := mdl.SuiteTimes(specs, cfg)
		if err != nil {
			t.Fatalf("%s t=%d %v: SuiteTimes: %v", cfg.Machine.Label, cfg.Threads, cfg.Placement, err)
		}
		if len(batched) != len(specs) {
			t.Fatalf("SuiteTimes returned %d breakdowns for %d specs", len(batched), len(specs))
		}
		for i, spec := range specs {
			single, err := mdl.KernelTime(spec, cfg)
			if err != nil {
				t.Fatalf("%s: KernelTime: %v", spec.Name, err)
			}
			if batched[i] != single {
				t.Errorf("%s on %s t=%d %v %v: batched %+v != single %+v",
					spec.Name, cfg.Machine.Label, cfg.Threads, cfg.Placement, cfg.Prec,
					batched[i], single)
			}
		}
	}
}

// TestSuiteTimesErrors mirrors KernelTime's config validation.
func TestSuiteTimesErrors(t *testing.T) {
	mdl := perfmodel.New()
	specs := suite.All()
	if _, err := mdl.SuiteTimes(specs, perfmodel.Config{}); err == nil {
		t.Error("nil machine: want error")
	}
	if _, err := mdl.SuiteTimes(specs, perfmodel.Config{Machine: machine.SG2042()}); err == nil {
		t.Error("zero threads: want error")
	}
	over := perfmodel.Config{Machine: machine.SG2042(), Threads: 1000, Prec: prec.F32}
	if _, err := mdl.SuiteTimes(specs, over); err == nil {
		t.Error("oversubscribed threads: want placement error")
	}
}

// TestSingleSocketExplicitMatchesImplicit: writing Sockets=1, Nodes=1
// explicitly must change nothing — every breakdown stays bit-identical
// to the implicit (zero-valued) single-socket machine. Together with
// the construction (every new model term is gated on a multi-package
// sharing), this is the proof that pre-topology results are unchanged.
func TestSingleSocketExplicitMatchesImplicit(t *testing.T) {
	mdl := perfmodel.New()
	specs := suite.All()
	explicit := machine.SG2042()
	explicit.Sockets = 1
	explicit.Nodes = 1
	for _, threads := range []int{1, 8, 64} {
		implicitCfg := perfmodel.Config{Machine: machine.SG2042(), Threads: threads,
			Placement: placement.CyclicNUMA, Prec: prec.F64,
			Compiler: autovec.GCCXuanTie, Mode: autovec.VLS}
		explicitCfg := implicitCfg
		explicitCfg.Machine = explicit
		a, err := mdl.SuiteTimes(specs, implicitCfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mdl.SuiteTimes(specs, explicitCfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("t=%d %s: explicit Sockets=1 changed the breakdown:\n%+v\n%+v",
					threads, specs[i].Name, b[i], a[i])
			}
		}
	}
}

// TestCrossSocketPenaltyIsVisible: the link terms must actually act —
// a placement spanning both sockets is slower on the stock SG2042x2
// than on a variant whose inter-socket link is effectively free.
func TestCrossSocketPenaltyIsVisible(t *testing.T) {
	mdl := perfmodel.New()
	specs := suite.All()
	free := machine.SG2042x2()
	free.XSocketBW = 1e18
	free.XSocketLatencyNs = 1e-9
	cfg := perfmodel.Config{Machine: machine.SG2042x2(), Threads: 64,
		Placement: placement.CyclicNUMA, Prec: prec.F64,
		Compiler: autovec.GCCXuanTie, Mode: autovec.VLS}
	freeCfg := cfg
	freeCfg.Machine = free
	stock, err := mdl.SuiteTimes(specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cheap, err := mdl.SuiteTimes(specs, freeCfg)
	if err != nil {
		t.Fatal(err)
	}
	slower := 0
	for i := range stock {
		if stock[i].Seconds > cheap[i].Seconds {
			slower++
		}
		if stock[i].Seconds < cheap[i].Seconds {
			t.Errorf("%s: stock link faster than free link", specs[i].Name)
		}
	}
	if slower == 0 {
		t.Error("cross-socket link cost never visible across the suite")
	}
}

func BenchmarkSuiteTimesBatched(b *testing.B) {
	mdl := perfmodel.New()
	specs := suite.All()
	cfg := perfmodel.Config{Machine: machine.SG2042(), Threads: 32,
		Placement: placement.CyclicNUMA, Prec: prec.F32,
		Compiler: autovec.GCCXuanTie, Mode: autovec.VLS}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mdl.SuiteTimes(specs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteTimesMultiSocket covers the new hot path: a full-board
// evaluation whose placement spans the inter-socket link.
func BenchmarkSuiteTimesMultiSocket(b *testing.B) {
	mdl := perfmodel.New()
	specs := suite.All()
	cfg := perfmodel.Config{Machine: machine.SG2042x2(), Threads: 128,
		Placement: placement.CyclicNUMA, Prec: prec.F32,
		Compiler: autovec.GCCXuanTie, Mode: autovec.VLS}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mdl.SuiteTimes(specs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteTimesPerKernel(b *testing.B) {
	mdl := perfmodel.New()
	specs := suite.All()
	cfg := perfmodel.Config{Machine: machine.SG2042(), Threads: 32,
		Placement: placement.CyclicNUMA, Prec: prec.F32,
		Compiler: autovec.GCCXuanTie, Mode: autovec.VLS}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if _, err := mdl.KernelTime(spec, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestBuiltinMaxMatchesMathMax: clockTerms combines its terms with the
// builtin max, which the compiler inlines, where it called math.Max (an
// assembly call on amd64). On every pair without a NaN — ±0, ±Inf and
// subnormals included — the two agree bit for bit. With a NaN operand
// both give a NaN, though not always the same payload, except beside
// +Inf: math.Max(+Inf, NaN) is +Inf and the builtin gives NaN. The
// model's terms are finite for a validated machine, so its times cannot
// tell the two apart.
func TestBuiltinMaxMatchesMathMax(t *testing.T) {
	agree := func(a, b float64) {
		t.Helper()
		got, want := max(a, b), math.Max(a, b)
		switch {
		case !math.IsNaN(a) && !math.IsNaN(b):
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("max(%v, %v) = %#x, math.Max = %#x", a, b, math.Float64bits(got), math.Float64bits(want))
			}
		case math.IsInf(a, 1) || math.IsInf(b, 1):
			if !math.IsNaN(got) || !math.IsInf(want, 1) {
				t.Fatalf("max(%v, %v) = %v, math.Max = %v; want NaN and +Inf", a, b, got, want)
			}
		case !math.IsNaN(got) || !math.IsNaN(want):
			t.Fatalf("max(%v, %v) = %v, math.Max = %v; want NaN from both", a, b, got, want)
		}
	}
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff8000000000000),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x800fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 1e-9, 3.5e-3,
	}
	for _, a := range special {
		for _, b := range special {
			agree(a, b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		a := math.Float64frombits(rng.Uint64())
		b := math.Float64frombits(rng.Uint64())
		if i%2 == 1 {
			// Neighbours and equal magnitudes of either sign.
			b = math.Copysign(math.Float64frombits(math.Float64bits(a)^uint64(rng.Intn(2))), b)
		}
		agree(a, b)
	}
}
