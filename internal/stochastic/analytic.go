package stochastic

// This file holds the analytic exports: closed-form traffic descriptors
// consumed by the internal/analytic queueing estimator. Each source
// configuration exposes its effective injection rate and the burstiness
// (squared coefficient of variation) of its inter-injection gaps, and a
// compiled Sampler exposes its exact per-source destination distribution.
// These are structural quantities derived from the configuration alone —
// no simulation — so the estimator sees the same traffic the generators
// will produce without running them.

import "math"

// Resolved returns the configuration with every defaulted knob filled in
// (MeanGap 10, StdDev MeanGap/4, BurstLen 8, ReadFraction 0.6, Count
// 1000) — the values the generator itself would run with.
func (c Config) Resolved() Config { return c.withDefaults() }

// MeanGapCycles returns the mean drawn inter-injection gap in cycles: the
// Dist draw mean, or 1/rate for an MMPP/self-similar arrival process. The
// generator adds one handshake cycle per transaction on top of the drawn
// gap (wake = completion + gap + 1), which is the +1 in the sweep's
// offered-load definition cores·1000/(gap+1).
func (c Config) MeanGapCycles() float64 {
	c = c.withDefaults()
	switch {
	case c.MMPP != nil:
		if r := c.MMPP.Rate(); r > 0 {
			return 1 / r
		}
		return math.Inf(1)
	case c.SelfSimilar != nil:
		if r := c.SelfSimilar.Rate(); r > 0 {
			return 1 / r
		}
		return math.Inf(1)
	}
	return c.MeanGap
}

// GapSCV returns the squared coefficient of variation (variance over
// squared mean) of the drawn inter-injection gaps — the burstiness input
// of the M/G/1-style waiting-time term. Exact for the memoryless Dist
// draws; for MMPP and self-similar processes it is a structural
// hyperexponential approximation (arrival-weighted mixture of the
// per-state exponential gaps, plus the silent-span mass) that ignores
// inter-gap correlation, so it bounds burstiness from below for
// long-range-dependent sources. Callers treat it as an error-bar input,
// not an exact moment.
func (c Config) GapSCV() float64 {
	c = c.withDefaults()
	switch {
	case c.MMPP != nil:
		return mmppGapSCV(*c.MMPP)
	case c.SelfSimilar != nil:
		return selfSimGapSCV(*c.SelfSimilar)
	}
	switch c.Dist {
	case Uniform:
		// Uniform on [0, 2m]: var m²/3.
		return 1.0 / 3
	case Gaussian:
		if c.MeanGap <= 0 {
			return 0
		}
		sd := c.StdDev / c.MeanGap
		return sd * sd
	case Poisson:
		return 1
	case Bursty:
		// BurstLen-1 zero gaps then one Exp(m·B) gap: E[g²] = 2m²B,
		// mean m, so SCV = 2B - 1.
		return 2*float64(c.BurstLen) - 1
	}
	return 0
}

// mmppGapSCV approximates the MMPP gap SCV as the arrival-weighted
// mixture of the active states' exponential gaps, with each silent state's
// dwell folded into the gap that spans it (the burst-boundary gaps that
// dominate the variance of on/off chains).
func mmppGapSCV(m MMPP) float64 {
	var arrivals, m1, m2, silent2 float64
	for i, g := range m.StateGaps {
		d := m.StateDwells[i]
		if g > 0 {
			n := d / g // arrivals per visit
			arrivals += n
			m1 += n * g
			m2 += n * 2 * g * g
		} else {
			// Exponential dwell: E[span²] = 2d²; deterministic: d².
			if m.Deterministic {
				silent2 += d * d
			} else {
				silent2 += 2 * d * d
			}
		}
	}
	if arrivals <= 0 {
		return 0
	}
	mean := m1 / arrivals
	second := (m2 + silent2) / arrivals
	if mean <= 0 {
		return 0
	}
	return second/(mean*mean) - 1
}

// selfSimGapSCV approximates the self-similar gap SCV from the stationary
// on-station count: an arrival-weighted mixture over k active stations of
// Exp(PeakGap/k) gaps, inflated by the Hurst target (heavy-tailed on/off
// periods correlate gaps beyond what any renewal mixture captures).
func selfSimGapSCV(s SelfSimilar) float64 {
	f := s.OnMean / (s.OnMean + s.OffMean)
	n := s.Sources
	// Binomial(n, f) over the active-station count.
	var wsum, m1, m2 float64
	pk := math.Pow(1-f, float64(n)) // P(k=0)
	for k := 1; k <= n; k++ {
		pk = pk * float64(n-k+1) / float64(k) * f / (1 - f) // P(k)
		w := float64(k) * pk                                // arrival-weighted
		g := s.PeakGap / float64(k)
		wsum += w
		m1 += w * g
		m2 += w * 2 * g * g
	}
	if wsum <= 0 || m1 <= 0 {
		return 1
	}
	mean := m1 / wsum
	scv := (m2/wsum)/(mean*mean) - 1
	// Hurst inflation: H = 0.5 is short-range (no correction); the factor
	// grows linearly to 2× at H = 0.95.
	return scv * (1 + (s.Hurst-0.5)/0.45)
}

// DestProbs fills probs (length Nodes) with the probability that one draw
// from src lands on each logical node — the exact distribution Dest
// samples from, including the hotspot float-tail fold. The slice is
// reused when it has capacity; the returned slice is the filled one.
func (sp *Sampler) DestProbs(src int, probs []float64) []float64 {
	if cap(probs) < sp.nodes {
		probs = make([]float64, sp.nodes)
	}
	probs = probs[:sp.nodes]
	for i := range probs {
		probs[i] = 0
	}
	if sp.fixed != nil {
		probs[sp.fixed[src]] = 1
		return probs
	}
	if sp.spec.Pattern == Hotspot {
		prev := 0.0
		for i, c := range sp.hotCum {
			probs[sp.hotNodes[i]] += c - prev
			prev = c
		}
		rest := 1 - sp.hotSum
		if n := sp.drawCount(src); n > 0 && rest > 0 {
			for k := 0; k < n; k++ {
				probs[sp.draw(src, k)] += rest / float64(n)
			}
		} else if rest > 0 {
			// No cold candidate (weights sum to ~1): Dest folds the float
			// tail onto the last hotspot.
			probs[sp.hotNodes[len(sp.hotNodes)-1]] += rest
		}
		return probs
	}
	n := sp.drawCount(src)
	for k := 0; k < n; k++ {
		probs[sp.draw(src, k)] = 1 / float64(n)
	}
	return probs
}
