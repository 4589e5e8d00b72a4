package core

import (
	"math"
	"sort"
)

// MutualInformation returns the Fi×H matrix of estimated mutual information
// between each input hypercolumn and each HCU's output variable, computed
// from the probability traces:
//
//	I(fi, h) = Σ_{a∈fi} Σ_{j∈h} Cij[a,j] · log( Cij[a,j] / (Ci[a]·Cj[j]) )
//
// Because the traces are dense (the mask gates only the support), the score
// is defined for silent connections too — this is what lets structural
// plasticity compare "active low-entropy" against "silent high-entropy"
// connections, the exchange the paper describes in §III-B.
func (l *HiddenLayer) MutualInformation() []float64 {
	eps := l.p.Eps
	mi := make([]float64, l.Fi*l.H)
	units := l.Units()
	for a := 0; a < l.Inputs(); a++ {
		fi := a / l.Mi
		pa := math.Max(l.Ci[a], eps)
		row := l.Cij.Row(a)
		for j := 0; j < units; j++ {
			h := j / l.M
			pj := math.Max(l.Cj[j], eps)
			paj := row[j]
			if paj < eps {
				continue // lim p→0 of p·log p = 0
			}
			mi[fi*l.H+h] += paj * math.Log(paj/(pa*pj))
		}
	}
	// Estimation noise can push a block's sum slightly negative; clamp, MI
	// is non-negative by definition.
	for i, v := range mi {
		if v < 0 {
			mi[i] = 0
		}
	}
	return mi
}

// SwapRecord describes one structural-plasticity exchange.
type SwapRecord struct {
	HCU      int
	Silenced int // input hypercolumn turned off
	Enabled  int // input hypercolumn turned on
	GainMI   float64
}

// StructuralUpdate runs one round of structural plasticity: for each HCU,
// up to SwapsPerEpoch exchanges of the weakest active input hypercolumn for
// the strongest silent one, provided the silent one's MI exceeds the active
// one's by the hysteresis margin. Returns the executed swaps. The mask keeps
// exactly K active entries per HCU throughout (checked by tests as an
// invariant).
func (l *HiddenLayer) StructuralUpdate() []SwapRecord {
	if l.K == 0 || l.K == l.Fi {
		return nil // nothing to exchange at the degenerate field sizes
	}
	mi := l.MutualInformation()
	var swaps []SwapRecord
	for h := 0; h < l.H; h++ {
		for s := 0; s < l.p.SwapsPerEpoch; s++ {
			worstActive, bestSilent := -1, -1
			worstMI, bestMI := math.Inf(1), math.Inf(-1)
			for fi := 0; fi < l.Fi; fi++ {
				score := mi[fi*l.H+h]
				if l.Mask[fi*l.H+h] {
					if score < worstMI {
						worstMI, worstActive = score, fi
					}
				} else if score > bestMI {
					bestMI, bestSilent = score, fi
				}
			}
			if worstActive < 0 || bestSilent < 0 {
				break
			}
			if bestMI <= worstMI*(1+l.p.SwapMargin) {
				break // no silent candidate clears the hysteresis bar
			}
			l.Mask[worstActive*l.H+h] = false
			l.Mask[bestSilent*l.H+h] = true
			swaps = append(swaps, SwapRecord{
				HCU: h, Silenced: worstActive, Enabled: bestSilent,
				GainMI: bestMI - worstMI,
			})
		}
	}
	if len(swaps) > 0 {
		l.maskChanged()
	}
	l.lastSwaps = swaps
	return swaps
}

// PruneRegrow runs one usage-driven structural step of the sparse-compute
// regime (DESIGN.md §15): per HCU it first regrows up to regrow random silent
// input hypercolumns, then prunes the lowest-MI active ones until exactly
// targetK remain active. Regrown connections have their joint-trace block
// re-seeded to the product of the marginals (Cij = Ci·Cj), the neutral state
// — their weights re-derive to ~0 and their MI starts at 0, so they are
// excluded from the same step's prune ranking (they would otherwise be culled
// immediately) and must earn their keep before the next one.
//
// Driving targetK down a schedule is what turns structural plasticity into a
// compute lever: every pruned hypercolumn removes an (Mi×M)-element block
// from the forward gather, the joint-trace update and the weight
// re-derivation of every batch. Returns one SwapRecord per event: regrowth
// has Silenced = -1, pruning has Enabled = -1 and GainMI = -MI of the culled
// connection. The layer's K becomes targetK.
func (l *HiddenLayer) PruneRegrow(targetK, regrow int) []SwapRecord {
	if targetK < 1 {
		targetK = 1
	}
	if targetK > l.Fi {
		targetK = l.Fi
	}
	// Growth is rate-limited by the regrow budget: a target above what this
	// round can reach clamps to K+regrow so the exactly-K-per-HCU invariant
	// survives (every HCU has the same silent count going in).
	if lim := l.K + regrow; targetK > lim {
		targetK = lim
	}
	var swaps []SwapRecord
	// Regrow first, across all HCUs, so one MI pass then scores every prune.
	regrown := make(map[int]bool) // fi*H+h of this step's regrowths
	for h := 0; h < l.H; h++ {
		var silent []int
		for fi := 0; fi < l.Fi; fi++ {
			if !l.Mask[fi*l.H+h] {
				silent = append(silent, fi)
			}
		}
		r := regrow
		if r > len(silent) {
			r = len(silent)
		}
		if r <= 0 {
			continue
		}
		for _, pick := range l.rng.Perm(len(silent))[:r] {
			fi := silent[pick]
			l.Mask[fi*l.H+h] = true
			regrown[fi*l.H+h] = true
			l.reseedBlock(fi, h)
			swaps = append(swaps, SwapRecord{HCU: h, Silenced: -1, Enabled: fi})
		}
	}
	mi := l.MutualInformation()
	for h := 0; h < l.H; h++ {
		var active []int
		for fi := 0; fi < l.Fi; fi++ {
			if l.Mask[fi*l.H+h] && !regrown[fi*l.H+h] {
				active = append(active, fi)
			}
		}
		// Lowest MI first; this step's regrowths rank after every veteran.
		sort.Slice(active, func(a, b int) bool {
			return mi[active[a]*l.H+h] < mi[active[b]*l.H+h]
		})
		for fi := 0; fi < l.Fi; fi++ {
			if regrown[fi*l.H+h] {
				active = append(active, fi)
			}
		}
		nPrune := len(active) - targetK
		for i := 0; i < nPrune; i++ {
			fi := active[i]
			l.Mask[fi*l.H+h] = false
			swaps = append(swaps, SwapRecord{HCU: h, Silenced: fi, Enabled: -1,
				GainMI: -mi[fi*l.H+h]})
		}
	}
	l.K = targetK
	l.maskChanged()
	l.lastSwaps = swaps
	return swaps
}

// reseedBlock resets the joint-trace block of (input hypercolumn fi, HCU h)
// to the product of the current marginals — the zero-information state a
// regrown connection learns from.
func (l *HiddenLayer) reseedBlock(fi, h int) {
	for a := fi * l.Mi; a < (fi+1)*l.Mi; a++ {
		row := l.Cij.Row(a)
		for j := h * l.M; j < (h+1)*l.M; j++ {
			row[j] = l.Ci[a] * l.Cj[j]
		}
	}
}

// LastSwaps returns the records of the most recent StructuralUpdate — the
// signal the adaptive-plasticity controller consumes from an EpochHook.
func (l *HiddenLayer) LastSwaps() []SwapRecord { return l.lastSwaps }

// ReceptiveField returns HCU h's mask as a []bool over input hypercolumns —
// the quantity Figs. 1, 2 and 5 of the paper visualize.
func (l *HiddenLayer) ReceptiveField(h int) []bool {
	out := make([]bool, l.Fi)
	for fi := 0; fi < l.Fi; fi++ {
		out[fi] = l.Mask[fi*l.H+h]
	}
	return out
}

// SetReceptiveField overwrites HCU h's mask (used by tests and by the
// receptive-field resize API); the layer's K is not changed, so the caller
// is responsible for keeping the count consistent.
func (l *HiddenLayer) SetReceptiveField(h int, field []bool) {
	if len(field) != l.Fi {
		panic("core: SetReceptiveField length mismatch")
	}
	for fi, on := range field {
		l.Mask[fi*l.H+h] = on
	}
	l.maskChanged()
}

// TopInputs returns the input hypercolumns of HCU h ranked by descending
// mutual information — the "where does this HCU look" introspection that
// the paper argues is BCPNN's unique data-science payoff (§V-B).
func (l *HiddenLayer) TopInputs(h int) []int {
	mi := l.MutualInformation()
	idx := make([]int, l.Fi)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return mi[idx[a]*l.H+h] > mi[idx[b]*l.H+h]
	})
	return idx
}
