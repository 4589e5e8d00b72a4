package tensor

import "math"

// Reduced-precision transcendentals for the float32 compute path.
//
// math.Log and math.Exp carry full float64 accuracy (and cost); the float32
// kernel set only needs results accurate to float32 rounding, so these
// single-precision Cephes-style polynomial evaluations (Moshier's logf/expf)
// run several times faster while staying within ~2 ulp of the correctly
// rounded float32 result. They are what makes the float32 UpdateWeights and
// SoftmaxGroups kernels genuinely cheaper — halving bandwidth alone would
// leave both dominated by float64 transcendental latency (DESIGN.md §9).
// On AVX2 machines SoftmaxRow evaluates Exp32 eight lanes at a time in
// expSumF32AVX (simd_amd64.s), which repeats its arithmetic operation for
// operation and is tested bit-identical to it: change the two together.

const (
	ln2Hi32 = 6.93359375e-1
	ln2Lo32 = -2.12194440e-4
	ln2f32  = 0.6931471805599453
	log2E32 = 1.44269504088896341
	// expHi/expLo bound the argument range of Exp32; outside it the float32
	// result overflows/underflows anyway.
	expHi32 = 88.3762626647949
	expLo32 = -87.3365478515625
)

// Log32 returns the natural logarithm of x with float32 accuracy.
// Conventions match math.Log: Log32(0) = -Inf, Log32(x<0) = NaN,
// Log32(+Inf) = +Inf, Log32(NaN) = NaN.
//
// The hot path is branch-free in the data: the exponent/mantissa split is
// done with integer arithmetic biased at sqrt(1/2) (the ARM optimized-
// routines logf reduction), so the unpredictable "mantissa below sqrt(1/2)"
// branch of the classic Cephes form never mispredicts, and the log1p
// polynomial is evaluated in Estrin form to cut the Horner dependency chain
// roughly in half. Both matter: UpdateWeights calls this once per weight.
func Log32(x float32) float32 {
	bits := math.Float32bits(x)
	if bits-0x00800000 >= 0x7f800000-0x00800000 {
		// Slow path: zero, subnormal, negative, ±Inf, NaN.
		switch {
		case x != x || math.IsInf(float64(x), 1):
			return x
		case x < 0:
			return float32(math.NaN())
		case x == 0:
			return float32(math.Inf(-1))
		}
		// Positive subnormal: renormalize and recurse onto the fast path.
		return Log32(x*(1<<23)) - 23*ln2f32
	}
	// Split x = 2^k · m with m in [sqrt(1/2), sqrt(2)): subtracting the
	// sqrt(1/2) offset makes the exponent field of (bits-off) the k that
	// puts m in that window, without a data-dependent branch.
	const off = 0x3f330000
	tmp := bits - off
	k := int32(tmp) >> 23
	m := math.Float32frombits(bits - uint32(k)<<23)
	r := m - 1 // in [sqrt(1/2)-1, sqrt(2)-1) ⊂ (-0.293, 0.415)

	// log(1+r) = r - r²/2 + r³·P(r); P in Estrin form (a0..a8 are the
	// Cephes logf coefficients, lowest order first).
	const (
		a0 float32 = 3.3333331174e-1
		a1 float32 = -2.4999993993e-1
		a2 float32 = 2.0000714765e-1
		a3 float32 = -1.6668057665e-1
		a4 float32 = 1.4249322787e-1
		a5 float32 = -1.2420140846e-1
		a6 float32 = 1.1676998740e-1
		a7 float32 = -1.1514610310e-1
		a8 float32 = 7.0376836292e-2
	)
	r2 := r * r
	r4 := r2 * r2
	b0 := a0 + a1*r
	b1 := a2 + a3*r
	b2 := a4 + a5*r
	b3 := a6 + a7*r
	p := (b0 + b1*r2) + (b2+b3*r2)*r4 + a8*r4*r4
	y := r * r2 * p
	fk := float32(k)
	y += fk * ln2Lo32
	y -= 0.5 * r2
	return r + y + fk*ln2Hi32
}

// Exp32 returns e**x with float32 accuracy. Conventions match math.Exp:
// overflow saturates to +Inf, underflow flushes to 0, Exp32(NaN) = NaN.
// Like Log32 it is built for the kernel hot loops (softmax exponentiates
// every unit of every sample): Estrin-form polynomial, branch-free 2^n
// scaling on the common path.
func Exp32(x float32) float32 {
	switch {
	case x != x:
		return x
	case x > expHi32:
		return float32(math.Inf(1))
	case x < expLo32:
		return 0
	}
	// Range-reduce x = n·ln2 + r, |r| <= ln2/2, in two steps so the
	// subtraction stays exact in float32. math.Floor compiles to a single
	// rounding instruction on amd64.
	n := float32(math.Floor(float64(log2E32*x + 0.5)))
	r := x - n*ln2Hi32
	r -= n * ln2Lo32
	// e^r = 1 + r + r²·Q(r); Q in Estrin form (Cephes expf coefficients,
	// lowest order first).
	const (
		q0 float32 = 5.0000001201e-1
		q1 float32 = 1.6666665459e-1
		q2 float32 = 4.1665795894e-2
		q3 float32 = 8.3334519073e-3
		q4 float32 = 1.3981999507e-3
		q5 float32 = 1.9875691500e-4
	)
	r2 := r * r
	b0 := q0 + q1*r
	b1 := q2 + q3*r
	b2 := q4 + q5*r
	p := b0 + (b1+b2*r2)*r2
	y := p*r2 + r + 1
	// y · 2^n. Inside the clamp the result exponent can still leave the
	// normal range (subnormal results near expLo32), so only the in-range
	// case takes the single-instruction path.
	ni := int(n)
	if uint(ni+126) <= 252 { // -126 <= n <= 126: 2^n is a normal float32
		return y * math.Float32frombits(uint32(127+ni)<<23)
	}
	return y * exp2i(ni)
}

// exp2i returns 2^n as a float32 for n in the extended exponent range,
// splitting the scaling so intermediate values stay representable.
func exp2i(n int) float32 {
	if n < -126 {
		return math.Float32frombits(uint32(127-126)<<23) * exp2iNormal(n+126)
	}
	if n > 127 {
		return math.Float32frombits(uint32(127+127)<<23) * exp2iNormal(n-127)
	}
	return exp2iNormal(n)
}

func exp2iNormal(n int) float32 {
	if n < -149 {
		return 0
	}
	if n > 127 {
		return float32(math.Inf(1))
	}
	if n < -126 { // subnormal result
		return math.Float32frombits(uint32(1) << uint(149+n))
	}
	return math.Float32frombits(uint32(127+n) << 23)
}
