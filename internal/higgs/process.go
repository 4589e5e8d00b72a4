package higgs

import (
	"math"
	"math/rand"

	"streambrain/internal/data"
	"streambrain/internal/tensor"
)

// Benchmark particle masses (GeV) of the Baldi et al. process.
const (
	massH0     = 425.0 // heavy neutral Higgs, the signal resonance
	massHpm    = 325.0 // charged Higgs
	massHiggs  = 125.0 // light Higgs h⁰ → bb̄
	massW      = 80.4
	massTop    = 173.0
	massB      = 4.7
	massLepton = 0.106 // muon
)

// Detector model parameters. The widths are deliberately on the pessimistic
// side of LHC performance: they control how much signal and background
// overlap, and are tuned so attainable AUC lands in the band the paper and
// Baldi et al. report (strong learners ≈0.80–0.88; E6, DESIGN.md §4).
const (
	jetSmear    = 0.11 // relative jet energy resolution
	leptonSmear = 0.04
	metSmear    = 0.18
	btagEff     = 0.62 // probability a true b-jet is tagged
	btagMis     = 0.18 // probability a light jet is mis-tagged
)

// NumLowLevel and NumHighLevel give the feature split of the HIGGS schema.
const (
	NumLowLevel  = 21
	NumHighLevel = 7
	NumFeatures  = NumLowLevel + NumHighLevel
)

// FeatureNames lists the 28 columns in UCI HIGGS order.
var FeatureNames = []string{
	"lepton_pT", "lepton_eta", "lepton_phi",
	"missing_energy_magnitude", "missing_energy_phi",
	"jet1_pt", "jet1_eta", "jet1_phi", "jet1_btag",
	"jet2_pt", "jet2_eta", "jet2_phi", "jet2_btag",
	"jet3_pt", "jet3_eta", "jet3_phi", "jet3_btag",
	"jet4_pt", "jet4_eta", "jet4_phi", "jet4_btag",
	"m_jj", "m_jjj", "m_lv", "m_jlv", "m_bb", "m_wbb", "m_wwbb",
}

// event is a fully reconstructed ℓν+4-jet final state.
type event struct {
	lepton Vec4
	met    Vec4 // transverse only (pz = 0)
	jets   [4]Vec4
	btag   [4]float64 // observed tag weight
}

// gauss returns a normal sample with the given mean and width.
func gauss(rng *rand.Rand, mean, sigma float64) float64 {
	return mean + sigma*rng.NormFloat64()
}

// smearedMass samples a resonance mass around its pole with the given width,
// floored away from zero.
func smearedMass(rng *rand.Rand, pole, width float64) float64 {
	m := gauss(rng, pole, width)
	if m < pole/2 {
		m = pole / 2
	}
	return m
}

// primarySystem samples the production four-momentum of the hard system:
// modest transverse recoil, broad longitudinal momentum — the shape of a
// gluon-fusion initial state at a hadron collider.
func primarySystem(rng *rand.Rand, m float64) Vec4 {
	pt := rng.ExpFloat64() * 35
	phi := 2 * math.Pi * rng.Float64()
	pz := gauss(rng, 0, 250)
	px := pt * math.Cos(phi)
	py := pt * math.Sin(phi)
	e := math.Sqrt(m*m + px*px + py*py + pz*pz)
	return Vec4{E: e, Px: px, Py: py, Pz: pz}
}

// decayWToLepton decays a W into (charged lepton, neutrino).
func decayWToLepton(w Vec4, rng *rand.Rand) (lep, nu Vec4) {
	return TwoBodyDecay(w, massLepton, 0, rng)
}

// decayWToJets decays a W hadronically into two light quarks.
func decayWToJets(w Vec4, rng *rand.Rand) (q1, q2 Vec4) {
	return TwoBodyDecay(w, 0.3, 0.3, rng)
}

// signalEvent generates one event of the benchmark signal chain:
// gg → H⁰ → W∓ H±, H± → W± h⁰, h⁰ → bb̄; one W decays leptonically, the
// other hadronically (chosen at random).
func signalEvent(rng *rand.Rand) (lep, nu Vec4, quarks [4]Vec4, isB [4]bool) {
	h0 := primarySystem(rng, smearedMass(rng, massH0, 8))
	w1, hpm := TwoBodyDecay(h0, smearedMass(rng, massW, 2.1), smearedMass(rng, massHpm, 10), rng)
	w2, h := TwoBodyDecay(hpm, smearedMass(rng, massW, 2.1), smearedMass(rng, massHiggs, 4), rng)
	b1, b2 := TwoBodyDecay(h, massB, massB, rng)
	lepW, hadW := w1, w2
	if rng.Intn(2) == 0 {
		lepW, hadW = w2, w1
	}
	lep, nu = decayWToLepton(lepW, rng)
	q1, q2 := decayWToJets(hadW, rng)
	quarks = [4]Vec4{b1, b2, q1, q2}
	isB = [4]bool{true, true, false, false}
	return
}

// backgroundEvent generates one tt̄ event with the identical final state:
// t → W⁺b (leptonic W), t̄ → W⁻b̄ (hadronic W), sides swapped at random.
func backgroundEvent(rng *rand.Rand) (lep, nu Vec4, quarks [4]Vec4, isB [4]bool) {
	// tt̄ invariant mass: threshold plus a falling tail. The tail scale
	// keeps most tops barely boosted, which is what makes the background's
	// b-pair mass soft compared to the signal's 125 GeV resonance.
	mtt := 2*massTop + rng.ExpFloat64()*60
	sys := primarySystem(rng, mtt)
	t1, t2 := TwoBodyDecay(sys, smearedMass(rng, massTop, 4), smearedMass(rng, massTop, 4), rng)
	if rng.Intn(2) == 0 {
		t1, t2 = t2, t1
	}
	wLep, b1 := TwoBodyDecay(t1, smearedMass(rng, massW, 2.1), massB, rng)
	wHad, b2 := TwoBodyDecay(t2, smearedMass(rng, massW, 2.1), massB, rng)
	lep, nu = decayWToLepton(wLep, rng)
	q1, q2 := decayWToJets(wHad, rng)
	quarks = [4]Vec4{b1, b2, q1, q2}
	isB = [4]bool{true, true, false, false}
	return
}

// smearVec rescales a four-momentum's energy scale by a Gaussian factor —
// the toy calorimeter.
func smearVec(v Vec4, rel float64, rng *rand.Rand) Vec4 {
	f := 1 + rel*rng.NormFloat64()
	if f < 0.1 {
		f = 0.1
	}
	return Vec4{E: v.E * f, Px: v.Px * f, Py: v.Py * f, Pz: v.Pz * f}
}

// reconstruct applies the detector model and assembles the observed event:
// smeared lepton, smeared jets sorted by descending pT, observed b-tag
// weights, and MET built from the (smeared) neutrino transverse momentum.
func reconstruct(lep, nu Vec4, quarks [4]Vec4, isB [4]bool, rng *rand.Rand) event {
	var ev event
	ev.lepton = smearVec(lep, leptonSmear, rng)

	type jet struct {
		p   Vec4
		tag float64
	}
	jets := make([]jet, 4)
	for i, q := range quarks {
		p := smearVec(q, jetSmear, rng)
		// Observed tag weight: tagged jets get a high weight, untagged a low
		// one, with efficiency/mis-tag flips. The continuous weights mimic
		// the discretized tagger output in the UCI columns.
		tagged := false
		if isB[i] {
			tagged = rng.Float64() < btagEff
		} else {
			tagged = rng.Float64() < btagMis
		}
		w := 0.0
		if tagged {
			w = 1.5 + rng.Float64()
		} else {
			w = rng.Float64() * 0.9
		}
		jets[i] = jet{p: p, tag: w}
	}
	// pT-descending jet ordering, as in the real dataset.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if jets[j].p.Pt() > jets[i].p.Pt() {
				jets[i], jets[j] = jets[j], jets[i]
			}
		}
	}
	for i, j := range jets {
		ev.jets[i] = j.p
		ev.btag[i] = j.tag
	}
	met := smearVec(nu, metSmear, rng)
	ev.met = Vec4{E: met.Pt(), Px: met.Px, Py: met.Py, Pz: 0}
	return ev
}

// features flattens a reconstructed event into the 28-column HIGGS schema.
// The high-level invariant masses are computed from the *observed* objects
// with tag-based assignment, so reconstruction confusion (mis-tags, smearing)
// degrades them exactly as in the real pipeline.
func (ev *event) features() []float64 {
	f := make([]float64, 0, NumFeatures)
	f = append(f, ev.lepton.Pt(), ev.lepton.Eta(), ev.lepton.Phi())
	f = append(f, ev.met.Pt(), ev.met.Phi())
	for i := 0; i < 4; i++ {
		f = append(f, ev.jets[i].Pt(), ev.jets[i].Eta(), ev.jets[i].Phi(), ev.btag[i])
	}

	// Tag-based assignment: the two highest-weight jets are the b
	// candidates, the other two the W candidates.
	order := [4]int{0, 1, 2, 3}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if ev.btag[order[j]] > ev.btag[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	b1, b2 := ev.jets[order[0]], ev.jets[order[1]]
	w1, w2 := ev.jets[order[2]], ev.jets[order[3]]

	wjj := w1.Add(w2)
	mjj := wjj.M()                                              // hadronic W candidate
	mjjj := wjj.Add(b1).M()                                     // hadronic top candidate (tt̄ peaks at 173)
	mlv := TransverseMass(ev.lepton, ev.met)                    // leptonic W (peaks for both classes)
	mjlv := ev.lepton.Add(ev.met).Add(b2).M()                   // leptonic top candidate
	mbb := b1.Add(b2).M()                                       // h⁰ candidate (signal peaks at 125)
	mwbb := wjj.Add(b1).Add(b2).M()                             // H± candidate (signal peaks at 325)
	mwwbb := wjj.Add(b1).Add(b2).Add(ev.lepton).Add(ev.met).M() // H⁰ candidate

	f = append(f, mjj, mjjj, mlv, mjlv, mbb, mwbb, mwwbb)
	return f
}

// Generate produces a synthetic HIGGS dataset of n events with the given
// signal fraction (label 1 = signal s, 0 = background b), reproducible from
// the seed. Features follow the UCI column order.
func Generate(n int, signalFrac float64, seed int64) *data.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &data.Dataset{
		X:            tensor.NewMatrix(n, NumFeatures),
		Y:            make([]int, n),
		Classes:      2,
		FeatureNames: FeatureNames,
	}
	for i := 0; i < n; i++ {
		var lep, nu Vec4
		var quarks [4]Vec4
		var isB [4]bool
		label := 0
		if rng.Float64() < signalFrac {
			label = 1
			lep, nu, quarks, isB = signalEvent(rng)
		} else {
			lep, nu, quarks, isB = backgroundEvent(rng)
		}
		ev := reconstruct(lep, nu, quarks, isB, rng)
		copy(d.X.Row(i), ev.features())
		d.Y[i] = label
	}
	return d
}
