package tensor

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The keyed Gaussian stream: the AVX2 kernel against its scalar twin, the
// distribution against N(0,1), and a committed hash that pins the values on
// every build.

// checkAddNormal runs the kernel and the twin on copies of x and fails at the
// first element whose bits differ.
func checkAddNormal(t *testing.T, x []float64, std float64, key, row uint64) {
	t.Helper()
	got := slices.Clone(x)
	want := slices.Clone(x)
	addNormal(got, std, key, row, true)
	addNormal(want, std, key, row, false)
	for j := range want {
		if !sameBits64(got[j], want[j]) {
			t.Fatalf("key %#x row %d std %v len %d: element %d = %v, twin gives %v",
				key, row, std, len(x), j, got[j], want[j])
		}
	}
}

func TestAddNormalKernelMatchesTwin(t *testing.T) {
	if !simdEnabled {
		t.Skip("no AVX2 kernel on this build: AddNormal is the twin")
	}
	rng := rand.New(rand.NewSource(50))
	buf := make([]float64, 70_000)
	for i := range buf {
		buf[i] = rng.NormFloat64()
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			for r := range 8 {
				checkAddNormal(t, buf[off:off+n], 0.5, rng.Uint64(), uint64(r))
			}
		}
	}
	// Rows long enough to fill the kernel's record of failing groups
	// several times over.
	for _, n := range []int{3000, 4096, 65_537} {
		checkAddNormal(t, buf[1:1+n], 1.7, rng.Uint64(), 3)
	}
}

func FuzzAddNormal(f *testing.F) {
	f.Add(uint64(1), uint64(0), 0.5, uint16(3000), uint8(0))
	f.Add(uint64(0), uint64(7), 1.0, uint16(67), uint8(3))
	f.Add(^uint64(0), ^uint64(0), -2.5, uint16(5), uint8(1))
	f.Fuzz(func(t *testing.T, key, row uint64, std float64, n uint16, off uint8) {
		if !simdEnabled {
			t.Skip("no AVX2 kernel on this build")
		}
		x := make([]float64, int(off%4)+int(n))
		for i := range x {
			x[i] = float64(i%13) - 6
		}
		checkAddNormal(t, x[off%4:], std, key, row)
	})
}

// normalDraws returns rows×cols draws of the stream for key, rows 0..rows-1.
func normalDraws(key uint64, rows, cols int) []float64 {
	z := make([]float64, rows*cols)
	for r := range rows {
		AddNormal(z[r*cols:(r+1)*cols], 1, key, uint64(r))
	}
	return z
}

// TestAddNormalDistribution checks 4M draws against N(0,1): the first four
// moments, the Kolmogorov-Smirnov distance, and the mass beyond 3.44σ and
// beyond the ziggurat's tail start zigR ≈ 3.65σ, each at about five
// standard errors.
func TestAddNormalDistribution(t *testing.T) {
	z := normalDraws(0x5eed, 1024, 4096)
	n := float64(len(z))
	var s1, s2, s4 float64
	cuts := []float64{3.44, zigR}
	beyond := make([]int, len(cuts))
	for _, v := range z {
		s1 += v
		s2 += v * v
		s4 += v * v * v * v
		for c, cut := range cuts {
			if math.Abs(v) > cut {
				beyond[c]++
			}
		}
	}
	mean, m2 := s1/n, s2/n
	if math.Abs(mean) > 5/math.Sqrt(n) {
		t.Errorf("mean %v", mean)
	}
	if math.Abs(m2-1) > 5*math.Sqrt(2/n) {
		t.Errorf("variance %v", m2)
	}
	if k := s4 / n / (m2 * m2); math.Abs(k-3) > 5*math.Sqrt(24/n) {
		t.Errorf("kurtosis %v", k)
	}
	for c, cut := range cuts {
		p := math.Erfc(cut / math.Sqrt2)
		if d := float64(beyond[c]) - p*n; math.Abs(d) > 5*math.Sqrt(p*n) {
			t.Errorf("%d draws beyond %.4f, want %.0f", beyond[c], cut, p*n)
		}
	}
	slices.Sort(z)
	var ks float64
	for i, v := range z {
		c := 0.5 * math.Erfc(-v/math.Sqrt2)
		ks = max(ks, math.Abs(c-float64(i)/n), math.Abs(float64(i+1)/n-c))
	}
	// The KS critical value at α = 0.001 is 1.95/√n.
	if ks > 1.95/math.Sqrt(n) {
		t.Errorf("Kolmogorov-Smirnov distance %v over %.0f draws", ks, n)
	}
}

// TestAddNormalTail checks the tail draw alone: base-layer candidates that
// fail the fast test must come back beyond zigR, distributed as the normal
// tail there (Kolmogorov-Smirnov against 1 - Q(x)/Q(zigR) over 200k draws).
func TestAddNormalTail(t *testing.T) {
	const n = 200_000
	z := make([]float64, n)
	for j := range z {
		u := uint64(j&1)<<55 | zig.k[0]<<3 // layer 0, magnitude k[0]: not fast
		z[j] = math.Abs(addNormalSlow(u, 0x7a11, j))
		if z[j] < zigR {
			t.Fatalf("tail draw %d = %v, below zigR", j, z[j])
		}
	}
	slices.Sort(z)
	qr := math.Erfc(zigR / math.Sqrt2)
	var ks float64
	for i, v := range z {
		c := 1 - math.Erfc(v/math.Sqrt2)/qr
		ks = max(ks, math.Abs(c-float64(i)/n), math.Abs(float64(i+1)/n-c))
	}
	if ks > 1.95/math.Sqrt(n) {
		t.Errorf("Kolmogorov-Smirnov distance of the tail draws %v", ks)
	}
}

// TestAddNormalHash pins the first 4096 values of one stream. It runs on
// every build — AVX2, purego and 386 — so the noise, and with it training,
// is the same on each. The key is one whose first row takes both fallback
// paths: the wedge test and the tail draw (logPos).
func TestAddNormalHash(t *testing.T) {
	const key, want uint64 = 5, 0x2ca6e1f6cd0dc04f
	var wedge, tail int
	_, lanes := seedNoise(key, 0)
	for range 4096 / 4 {
		for _, u := range lanes.next() {
			if _, ok := zigFast(u); !ok && u>>56 == 0 {
				tail++
			} else if !ok {
				wedge++
			}
		}
	}
	if wedge == 0 || tail == 0 {
		t.Fatalf("key %#x: %d wedge and %d tail draws, want both", key, wedge, tail)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range normalDraws(key, 1, 4096) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("hash of the first 4096 values = %#x, want %#x", got, want)
	}
}

// TestAddNormalPrefix: element j depends on (key, row, j) only — a shorter
// row gets the prefix of a longer one, and the values scale with std.
func TestAddNormalPrefix(t *testing.T) {
	long := make([]float64, 1000)
	AddNormal(long, 1, 9, 4)
	for _, n := range []int{1, 3, 4, 5, 63, 999} {
		short := make([]float64, n)
		AddNormal(short, 2, 9, 4)
		for j := range short {
			if short[j] != 2*long[j] {
				t.Fatalf("len %d element %d = %v, want 2×%v", n, j, short[j], long[j])
			}
		}
	}
	f32 := make([]float32, 1000)
	AddNormal(f32, 1, 9, 4)
	for j := range f32 {
		if f32[j] != float32(long[j]) {
			t.Fatalf("float32 element %d = %v, want %v", j, f32[j], float32(long[j]))
		}
	}
}

// TestSamplerTables checks the ziggurat's tables and its two transcendentals:
// every layer has the area zigV, and logPos/expNeg agree with math to within
// the rounding of math's own assembly paths.
func TestSamplerTables(t *testing.T) {
	x := func(i int) float64 { return zig.w[i] * zigM }
	if zig.k[1] != 0 || zig.f[0] != 1 {
		t.Fatalf("top layer: k %d f %v", zig.k[1], zig.f[0])
	}
	for i := 1; i < len(zig.k); i++ {
		if area := x(i) * (zig.f[i-1] - zig.f[i]); math.Abs(area/zigV-1) > 1e-9 {
			t.Errorf("layer %d: area %v, want %v", i, area, zigV)
		}
		if i > 1 && zig.k[i] != uint64(x(i-1)/x(i)*zigM) {
			t.Errorf("layer %d: fast bound %d", i, zig.k[i])
		}
	}
	rng := rand.New(rand.NewSource(3))
	for range 100_000 {
		u := rng.Float64()*0.999 + 0.001
		if l, m := logPos(u), math.Log(u); math.Abs(l-m) > 2.5*ulp(m) {
			t.Fatalf("logPos(%v) = %v, math.Log %v", u, l, m)
		}
		v := -20 * rng.Float64()
		if e, m := expNeg(v), math.Exp(v); math.Abs(e-m) > 2.5*ulp(m) {
			t.Fatalf("expNeg(%v) = %v, math.Exp %v", v, e, m)
		}
	}
}

func ulp(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

func BenchmarkAddNormal(b *testing.B) {
	x := make([]float64, 3000)
	b.SetBytes(int64(8 * len(x)))
	for i := range b.N {
		AddNormal(x, 0.5, 1, uint64(i))
	}
}
