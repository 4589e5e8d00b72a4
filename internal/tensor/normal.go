package tensor

import "math"

// Keyed Gaussian noise for the training step's support (DESIGN.md §14).
//
// AddNormal adds std·N(0,1) to every element of a row. The values are a pure
// function of (key, row, element index): the caller draws one key per step
// and passes the batch row, so the noise is the same whichever backend,
// worker band or build computes it, and no batch-sized noise buffer exists.
//
// The sampler is the exact 256-layer ziggurat of Marsaglia and Tsang (2000),
// fed by two kinds of stream seeded with splitmix64 from (key, row):
//
//   - four xoshiro256+ lanes give element j its candidate: lane j%4, output
//     j/4. About 98.5 % of candidates pass the fast test (the point lies in
//     its layer's inner rectangle) and are the result.
//   - an element whose candidate fails finishes from its own fallback
//     stream, a splitmix64 sequence seeded from the row seed and j: the wedge
//     or tail test, and fresh candidates until one is accepted.
//
// A rejection therefore never shifts another element's draw, which is what
// lets the AVX2 kernel run the fast path four lanes at a time and leave the
// failing elements to addNormalSlow: it produces the same bits as the scalar
// loop. Every transcendental the sampler (and its tables) uses is computed
// here in plain float64 arithmetic, with every product rounded before its
// sum, so the values are the same on every architecture and build tag.

const (
	zigR = 3.6541528853610088 // start of the tail: the base layer's right edge
	zigV = 4.92867323399e-3   // area of every layer
	zigM = 1 << 52            // scale of the 52-bit candidate magnitude
	zigS = 0x9E3779B97F4A7C15 // splitmix64 increment (2^64/φ)
	zigF = 0xD1B54A32D192ED03 // fallback-stream spacing, odd
	m52  = uint64(1)<<52 - 1  // candidate magnitude bits
	sm53 = 1.0 / (1 << 53)    // 2^-53, the uniform step
)

// zigTables are the ziggurat's per-layer constants. Layer 0 is the base
// strip with the tail, layer 1 the top. A candidate u gives layer i = u>>56,
// sign bit 55 and magnitude mag = u>>3 & m52; its value is mag·w[i], and it
// is accepted at once when mag < k[i]. f[i] is the density at the layer's
// lower edge. The AVX2 kernel reads k at offset 0 and w at offset 2048.
type zigTables struct {
	k [256]uint64
	w [256]float64
	f [256]float64
}

var zig = newZigTables()

// newZigTables runs Marsaglia and Tsang's recurrence from the tail start up
// to the top layer, each layer taking the area zigV.
func newZigTables() (t zigTables) {
	dn, tn := zigR, zigR
	q := zigV / expNeg(-0.5*dn*dn)
	t.k[0] = uint64(dn / q * zigM)
	t.w[0] = q / zigM
	t.w[255] = dn / zigM
	t.f[0] = 1
	t.f[255] = expNeg(-0.5 * dn * dn)
	for i := 254; i >= 1; i-- {
		dn = math.Sqrt(-2 * logPos(zigV/dn+expNeg(-0.5*dn*dn)))
		t.k[i+1] = uint64(dn / tn * zigM)
		tn = dn
		t.f[i] = expNeg(-0.5 * dn * dn)
		t.w[i] = dn / zigM
	}
	return t
}

// noiseLanes is the state of the four xoshiro256+ lanes, word-major:
// s[w][lane], so each word is one AVX2 register.
type noiseLanes [4][4]uint64

// noiseGroup is a group of four elements the AVX2 kernel met with at least
// one failing candidate: its element offset within the kernel's slice and
// its four candidates. The kernel has already added the passing lanes.
type noiseGroup struct {
	at int
	u  [4]uint64
}

// mix64 is splitmix64's output function.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// seedNoise returns the seed of the (key, row) stream and its four lanes,
// the first sixteen outputs of the splitmix64 sequence from that seed.
func seedNoise(key, row uint64) (seed uint64, l noiseLanes) {
	seed = mix64(key ^ mix64(row+zigS))
	for i := range 16 {
		l[i/4][i%4] = mix64(seed + uint64(i+1)*zigS)
	}
	return seed, l
}

// next advances every lane one xoshiro256+ step and returns the outputs.
func (l *noiseLanes) next() (u [4]uint64) {
	for i := range 4 {
		s0, s1, s2, s3 := l[0][i], l[1][i], l[2][i], l[3][i]
		u[i] = s0 + s3
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		l[0][i], l[1][i], l[2][i], l[3][i] = s0, s1, s2, s3<<45|s3>>19
	}
	return u
}

// zigFast returns the value of candidate u and whether it passes the fast
// test. The kernel computes the same expression: the magnitude times the
// layer scale, then the sign.
func zigFast(u uint64) (float64, bool) {
	i, mag := u>>56, u>>3&m52
	x := float64(mag) * zig.w[i]
	if u>>55&1 != 0 {
		x = -x
	}
	return x, mag < zig.k[i]
}

// splitmix is a fallback stream.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += zigS
	return mix64(uint64(*s))
}

// uniform returns the next value of the stream in (0, 1].
func (s *splitmix) uniform() float64 { return float64(s.next()>>11+1) * sm53 }

// addNormalSlow finishes element j, whose candidate u failed the fast test,
// from the element's fallback stream: the tail draw for the base layer, the
// wedge test otherwise, and fresh candidates from the same stream until one
// is accepted.
func addNormalSlow(u, seed uint64, j int) float64 {
	g := splitmix(mix64(seed ^ uint64(j+1)*zigF))
	for {
		x, ok := zigFast(u)
		if ok {
			return x
		}
		i := u >> 56
		if i == 0 {
			for {
				a := -logPos(g.uniform()) / zigR
				b := -logPos(g.uniform())
				if b+b >= a*a {
					if u>>55&1 != 0 {
						return -(zigR + a)
					}
					return zigR + a
				}
			}
		}
		if zig.f[i]+float64(g.uniform()*(zig.f[i-1]-zig.f[i])) < expNeg(-0.5*x*x) {
			return x
		}
		u = g.next()
	}
}

// AddNormal adds std·z to x[j] for every j, where z is the j-th standard
// normal of the stream for (key, row). The same (key, row) gives the same
// values at every length: element j depends on j, never on len(x).
func AddNormal[T Float](x []T, std float64, key, row uint64) {
	addNormal(x, std, key, row, simdEnabled)
}

// addNormal is AddNormal with the AVX2 kernel switched by vec; vec = false
// is the scalar reference the kernel is tested against. The kernel takes
// float64 rows; float32 rows add the float64 noise rounded to float32.
func addNormal[T Float](x []T, std float64, key, row uint64, vec bool) {
	seed, lanes := seedNoise(key, row)
	j := 0
	if x64, ok := any(x).([]float64); ok && vec {
		var fails [16]noiseGroup
		for len(x64)-j >= 4 {
			n, nf := addNormalF64AVX(x64[j:], std, &lanes, &zig, fails[:])
			for _, g := range fails[:nf] {
				for lane, u := range g.u {
					if _, ok := zigFast(u); !ok {
						e := j + g.at + lane
						x64[e] += float64(std * addNormalSlow(u, seed, e))
					}
				}
			}
			j += n
		}
	}
	for ; j < len(x); j += 4 {
		u := lanes.next()
		for lane := 0; lane < 4 && j+lane < len(x); lane++ {
			z, ok := zigFast(u[lane])
			if !ok {
				z = addNormalSlow(u[lane], seed, j+lane)
			}
			x[j+lane] += T(std * z)
		}
	}
}

// Deterministic transcendentals for the sampler. Both are the FreeBSD msun
// algorithms Go's math package implements in pure Go, restricted to the
// arguments the sampler passes, with each product converted before it is
// summed so no compiler may fuse it into an FMA. math.Exp and math.Log may
// take assembly or FMA paths that round differently on some builds.

// logPos returns ln(x) for positive normal finite x.
func logPos(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01
		ln2Lo = 1.90821492927058770002e-10
		l1    = 6.666666666666735130e-01
		l2    = 3.999999999940941908e-01
		l3    = 2.857142874366239149e-01
		l4    = 2.222219843214978396e-01
		l5    = 1.818357216161805012e-01
		l6    = 1.531383769920937332e-01
		l7    = 1.479819860511658591e-01
	)
	f1, ki := math.Frexp(x)
	if f1 < math.Sqrt2/2 {
		f1 *= 2
		ki--
	}
	f := f1 - 1
	k := float64(ki)
	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7))))))
	t2 := s4 * (l2 + float64(s4*(l4+float64(s4*l6))))
	hfsq := float64(0.5*f) * f
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+(t1+t2))) + float64(k*ln2Lo))) - f)
}

// expNeg returns e^x for x in [-700, 0].
func expNeg(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01
		ln2Lo = 1.90821492927058770002e-10
		log2e = 1.44269504088896338700e+00
		p1    = 1.66666666666666657415e-01
		p2    = -2.77777777770155933842e-03
		p3    = 6.61375632143793436117e-05
		p4    = -1.65339022054652515390e-06
		p5    = 4.13813679705723846039e-08
	)
	k := 0
	if x < 0 {
		k = int(float64(log2e*x) - 0.5)
	}
	hi := x - float64(float64(k)*ln2Hi)
	lo := float64(k) * ln2Lo
	r := hi - lo
	t := r * r
	c := r - float64(t*(p1+float64(t*(p2+float64(t*(p3+float64(t*(p4+float64(t*p5)))))))))
	y := 1 - ((lo - float64(r*c)/(2-c)) - hi)
	return y * math.Float64frombits(uint64(k+1023)<<52)
}
