package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// Bit-equality of the vectorized softmax against its scalar reference. On
// builds without the AVX2 kernels the dispatch is the reference, so the
// sweeps skip and the row tests compare the scalar path with itself.

func sameBits64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func sameBits32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// exp64Inputs returns the f64 sweep: the softmax range [-745, 0], ±710,
// random bit patterns, and the edges of the kernel's lane range and of
// math.Exp's branches.
func exp64Inputs() []float64 {
	rng := rand.New(rand.NewSource(45))
	xs := make([]float64, 0, 10_300_000)
	for range 5_000_000 {
		xs = append(xs, -745*rng.Float64())
	}
	for range 2_000_000 {
		xs = append(xs, 1420*rng.Float64()-710)
	}
	for range 3_000_000 {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	for _, e := range []float64{-745.1332191019412, -708, 709, 709.782712893384, 0} {
		x := e
		for range 2000 {
			xs = append(xs, x, -x)
			x = math.Nextafter(x, math.Inf(1))
		}
		x = e
		for range 2000 {
			x = math.Nextafter(x, math.Inf(-1))
			xs = append(xs, x, -x)
		}
	}
	for i := range 2000 {
		sub := math.Float64frombits(uint64(i) * 0x0000_0F00_0000_0001)
		xs = append(xs, sub, -sub)
	}
	return append(xs, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64)
}

func TestExpSum64MatchesMathExp(t *testing.T) {
	if !expF64Enabled {
		t.Skip("the f64 exp kernel is off: no AVX2 build, or math.Exp is not on its FMA path")
	}
	xs := exp64Inputs()
	buf := make([]float64, 4096)
	for c := 0; c < len(xs); c += len(buf) {
		in := xs[c:min(c+len(buf), len(xs))]
		b := buf[:len(in)]
		copy(b, in)
		// maxv 0 and t 1 make each lane's argument the input itself.
		got := expSum64(b, 0, 1, true)
		var want float64
		for i, x := range in {
			e := math.Exp(x)
			want += e
			if !sameBits64(b[i], e) {
				t.Fatalf("exp(%v [%#016x]) = %v, math.Exp gives %v", x, math.Float64bits(x), b[i], e)
			}
		}
		if !sameBits64(got, want) {
			t.Fatalf("chunk at %d: sum %v, sequential sum %v", c, got, want)
		}
	}
	// The comparison above must not pass because every block bailed.
	b := make([]float64, 1000)
	for i := range b {
		b[i] = -707.9 * float64(i) / float64(len(b))
	}
	if n, _ := expSumF64AVX(b, 0, 1, 0); n != len(b) {
		t.Fatalf("kernel stopped at %d of %d in-range lanes", n, len(b))
	}
}

func TestExpSum32MatchesExp32(t *testing.T) {
	if !simdEnabled {
		t.Skip("no AVX2 exp kernel on this build")
	}
	// A stride coprime to 2^32 visits every sign, exponent and many
	// mantissa bit positions: 16.7 M patterns.
	const stride = 257
	buf := make([]float32, 8192)
	in := make([]float32, len(buf))
	bits := uint64(0)
	for bits < 1<<32 {
		in = in[:0]
		for len(in) < cap(in) && bits < 1<<32 {
			in = append(in, math.Float32frombits(uint32(bits)))
			bits += stride
		}
		b := buf[:len(in)]
		copy(b, in)
		got := expSum32(b, 0, 1, true)
		var want float32
		for i, x := range in {
			e := Exp32(x)
			want += e
			if !sameBits32(b[i], e) {
				t.Fatalf("exp32(%v [%#08x]) = %v, Exp32 gives %v", x, math.Float32bits(x), b[i], e)
			}
		}
		if !sameBits32(got, want) {
			t.Fatalf("chunk ending at %#x: sum %v, sequential sum %v", bits, got, want)
		}
	}
	// Inside the clamps the kernel must take every lane, including the ones
	// it clamps to 0 and +Inf.
	b := make([]float32, 1000)
	for i := range b {
		b[i] = 200*float32(i)/float32(len(b)) - 110
		if b[i] > 80 {
			b[i] += 10
		}
	}
	if n, _ := expSumF32AVX(b, 0, 1, 0); n != len(b) {
		t.Fatalf("kernel stopped at %d of %d lanes", n, len(b))
	}
}

// softmaxRows builds the dispatch test rows of width w: Gaussian supports at
// several scales, plus rows that cross the kernels' stop conditions mid-row
// (lanes far below the max, -Inf and NaN entries, a zero maximum).
func softmaxRows(rng *rand.Rand, w int, temp float64) [][]float64 {
	var rows [][]float64
	for _, scale := range []float64{0.1, 3, 40} {
		r := make([]float64, w)
		for i := range r {
			r[i] = scale * rng.NormFloat64()
		}
		rows = append(rows, r)
	}
	cross := make([]float64, w)
	for i := range cross {
		cross[i] = rng.NormFloat64()
		if rng.Intn(5) == 0 {
			// (v - max)/T near or below -708, so f64 lanes stop the kernel.
			cross[i] = -temp * (700 + 20*rng.Float64())
		}
	}
	rows = append(rows, cross)
	special := make([]float64, w)
	for i := range special {
		special[i] = rng.NormFloat64()
	}
	special[w/2] = math.Inf(-1)
	special[(w-1)/3] = math.NaN()
	rows = append(rows, special)
	zeroMax := make([]float64, w)
	for i := range zeroMax {
		zeroMax[i] = -rng.Float64()
	}
	zeroMax[w-1] = math.Copysign(0, -1)
	zeroMax[(w-1)/2] = 0
	return append(rows, zeroMax)
}

// A NaN anywhere makes the whole softmax row NaN, so the row tests cannot
// see whether rowMax's vector path returned the loop's value; compare it
// directly, NaN payload and zero sign included.
func TestRowMaxMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for w := 1; w <= 67; w++ {
		for _, pos := range []int{0, w / 3, max(w&^7-1, 0), w - 1} {
			row := make([]float64, w)
			for i := range row {
				row[i] = -rng.Float64()
			}
			for _, v := range []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)} {
				row[pos] = v
				if w > 1 {
					row[(pos+1)%w] = math.Copysign(0, -1) // a zero maximum of the other sign
				}
				row32 := make([]float32, w)
				for i, x := range row {
					row32[i] = float32(x)
				}
				if got, want := rowMax(row, simdEnabled), rowMax(row, false); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("f64 w=%d %v at %d: vector %v, loop %v", w, v, pos, got, want)
				}
				if got, want := rowMax(row32, simdEnabled), rowMax(row32, false); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("f32 w=%d %v at %d: vector %v, loop %v", w, v, pos, got, want)
				}
			}
		}
	}
}

func TestSoftmaxRowDispatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	widths := []int{3000}
	for w := 1; w <= 67; w++ {
		widths = append(widths, w)
	}
	for _, w := range widths {
		for _, temp := range []float64{0.3, 1, 2.5} {
			for k, row := range softmaxRows(rng, w, temp) {
				got, want := append([]float64(nil), row...), append([]float64(nil), row...)
				SoftmaxRow(got, temp)
				softmaxRow(want, temp, false)
				for i := range got {
					if !sameBits64(got[i], want[i]) {
						t.Fatalf("f64 w=%d T=%g row %d [%d]: dispatch %v, scalar %v", w, temp, k, i, got[i], want[i])
					}
				}
				got32, want32 := make([]float32, w), make([]float32, w)
				for i, v := range row {
					got32[i], want32[i] = float32(v), float32(v)
				}
				SoftmaxRow(got32, temp)
				softmaxRow(want32, temp, false)
				for i := range got32 {
					if !sameBits32(got32[i], want32[i]) {
						t.Fatalf("f32 w=%d T=%g row %d [%d]: dispatch %v, scalar %v", w, temp, k, i, got32[i], want32[i])
					}
				}
			}
		}
	}
}

// FuzzSoftmaxRow reads a temperature and a row from the bytes, eight bytes
// per float64, and asserts that the dispatched softmax equals the scalar
// reference bit for bit at both precisions.
func FuzzSoftmaxRow(f *testing.F) {
	seed := func(temp float64, row ...float64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(temp))
		for _, v := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	ramp := make([]float64, 40)
	for i := range ramp {
		ramp[i] = -30 * float64(i)
	}
	f.Add(seed(1, ramp...))
	f.Add(seed(0.3, ramp...))
	f.Add(seed(0.01, ramp...))
	f.Add(seed(2.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17))
	f.Add(seed(1, math.Inf(-1), math.Inf(-1), math.Inf(-1)))
	f.Add(seed(-1, 0, math.Copysign(0, -1), -1, -2, -3, -4, -5, -6, -7, -8, -9, -10, -11, -12, -13, -14))
	f.Add(seed(1, append(ramp[:20:20], math.NaN(), math.Inf(1))...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		temp := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		row := make([]float64, len(data)/8)
		for i := range row {
			row[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		got, want := append([]float64(nil), row...), append([]float64(nil), row...)
		SoftmaxRow(got, temp)
		softmaxRow(want, temp, false)
		for i := range got {
			if !sameBits64(got[i], want[i]) {
				t.Fatalf("f64 T=%v [%d] of %v: dispatch %v, scalar %v", temp, i, row, got[i], want[i])
			}
		}
		got32, want32 := make([]float32, len(row)), make([]float32, len(row))
		for i, v := range row {
			got32[i], want32[i] = float32(v), float32(v)
		}
		SoftmaxRow(got32, temp)
		softmaxRow(want32, temp, false)
		for i := range got32 {
			if !sameBits32(got32[i], want32[i]) {
				t.Fatalf("f32 T=%v [%d] of %v: dispatch %v, scalar %v", temp, i, row, got32[i], want32[i])
			}
		}
	})
}
