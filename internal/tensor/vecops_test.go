package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 10, 10, 10, 10}
	Axpy(2, x, y)
	want := []float64{12, 14, 16, 18, 20}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("y[%d]=%v want %v", i, y[i], want[i])
		}
	}
}

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{6, 5, 4, 3, 2, 1}
	if got := Dot(x, y); got != 56 {
		t.Fatalf("Dot=%v want 56", got)
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestScaleSum(t *testing.T) {
	x := []float64{1, 2, 3}
	Scale(3, x)
	if s := Sum(x); s != 18 {
		t.Fatalf("Sum=%v want 18", s)
	}
}

func TestLerpEndpoints(t *testing.T) {
	dst := []float64{1, 2, 3}
	src := []float64{7, 8, 9}
	d0 := append([]float64(nil), dst...)
	Lerp(d0, src, 0)
	for i := range d0 {
		if d0[i] != dst[i] {
			t.Fatal("Lerp t=0 must be identity")
		}
	}
	d1 := append([]float64(nil), dst...)
	Lerp(d1, src, 1)
	for i := range d1 {
		if d1[i] != src[i] {
			t.Fatal("Lerp t=1 must copy src")
		}
	}
}

// TestLerpConvergence: repeated Lerp toward a constant converges to it —
// exactly the fixed point the BCPNN trace relies on.
func TestLerpConvergence(t *testing.T) {
	dst := []float64{0}
	src := []float64{1}
	for i := 0; i < 2000; i++ {
		Lerp(dst, src, 0.01)
	}
	if math.Abs(dst[0]-1) > 1e-6 {
		t.Fatalf("Lerp did not converge: %v", dst[0])
	}
}

func TestLerpParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 1 << 15
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.Float64()
		b[i] = rng.Float64()
	}
	a2 := append([]float64(nil), a...)
	Lerp(a, b, 0.3)
	LerpParallel(a2, b, 0.3, 8)
	for i := range a {
		if math.Abs(a[i]-a2[i]) > 1e-15 {
			t.Fatalf("parallel lerp mismatch at %d", i)
		}
	}
}

// TestSoftmaxIsDistribution: softmax output must be a probability mass —
// non-negative, summing to 1 — for arbitrary finite inputs. Property test.
func TestSoftmaxIsDistribution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 50 // large magnitudes stress stability
		}
		SoftmaxRow(x, 1)
		var sum float64
		for _, v := range x {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxTemperature(t *testing.T) {
	// Lower temperature sharpens: the winner's probability must increase.
	x1 := []float64{1, 2, 3}
	x2 := []float64{1, 2, 3}
	SoftmaxRow(x1, 1)
	SoftmaxRow(x2, 0.25)
	if x2[2] <= x1[2] {
		t.Fatalf("T=0.25 winner %v not sharper than T=1 winner %v", x2[2], x1[2])
	}
}

// An all -Inf row must come back exactly uniform at both precisions; a
// tolerance compare would let a NaN row through, since NaN fails every
// comparison.
func TestSoftmaxExtremeInputsUniformFallback(t *testing.T) {
	for _, n := range []int{2, 5, 40} {
		x := make([]float64, n)
		x32 := make([]float32, n)
		for i := range x {
			x[i], x32[i] = math.Inf(-1), float32(math.Inf(-1))
		}
		SoftmaxRow(x, 1)
		SoftmaxRow(x32, 0.5)
		for i := range x {
			if x[i] != 1/float64(n) || x32[i] != 1/float32(n) {
				t.Fatalf("n=%d: fallback not uniform: %v / %v", n, x, x32)
			}
		}
	}
	// A NaN beside the -Inf entries is not an all -Inf row: it stays NaN.
	x := []float64{math.Inf(-1), math.NaN(), math.Inf(-1)}
	SoftmaxRow(x, 1)
	if !math.IsNaN(x[0]) {
		t.Fatalf("NaN row came back %v", x)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	// softmax(x) == softmax(x + c) — the max-subtraction must make this hold.
	x1 := []float64{0.5, -1, 2}
	x2 := []float64{100.5, 99, 102}
	SoftmaxRow(x1, 1)
	SoftmaxRow(x2, 1)
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-12 {
			t.Fatalf("shift variance at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}

func TestSoftmaxGroupsIndependence(t *testing.T) {
	m := FromSlice(1, 4, []float64{1, 3, 2, 2})
	SoftmaxGroups(m, 2, 2, 1)
	row := m.Row(0)
	if math.Abs(row[0]+row[1]-1) > 1e-12 || math.Abs(row[2]+row[3]-1) > 1e-12 {
		t.Fatalf("groups not independently normalized: %v", row)
	}
	if math.Abs(row[2]-0.5) > 1e-12 {
		t.Fatalf("equal supports must give uniform group: %v", row)
	}
}

func TestSoftmaxGroupsParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randMatrix(rng, 33, 12)
	b := a.Clone()
	SoftmaxGroups(a, 3, 4, 0.8)
	SoftmaxGroupsParallel(b, 3, 4, 0.8, 8)
	if d := a.MaxAbsDiff(b); d > 1e-15 {
		t.Fatalf("parallel softmax mismatch: %g", d)
	}
}

func TestColMeans(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 3, 4, 5})
	dst := make([]float64, 3)
	ColMeans(dst, m)
	want := []float64{2, 3, 4}
	for i := range dst {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Fatalf("ColMeans[%d]=%v want %v", i, dst[i], want[i])
		}
	}
}

func TestColMeansEmptyMatrix(t *testing.T) {
	m := NewMatrix(0, 3)
	dst := []float64{1, 1, 1}
	ColMeans(dst, m)
	for _, v := range dst {
		if v != 0 {
			t.Fatal("ColMeans of empty matrix should zero dst")
		}
	}
}

func TestArgMaxRow(t *testing.T) {
	if i := ArgMaxRow([]float64{1, 5, 3}); i != 1 {
		t.Fatalf("ArgMaxRow=%d want 1", i)
	}
	if i := ArgMaxRow([]float64{2, 2, 2}); i != 0 {
		t.Fatalf("ties must pick first, got %d", i)
	}
}

func TestClip(t *testing.T) {
	x := []float64{-5, 0.5, 5}
	Clip(x, 0, 1)
	want := []float64{0, 0.5, 1}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("Clip[%d]=%v want %v", i, x[i], want[i])
		}
	}
}
