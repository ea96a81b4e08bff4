package spoof

// Test seams: declarations only this package's tests read, kept out of
// the shipped build.

// LocalizationReport summarizes how well Localize narrowed down a known
// placement (for evaluation).
type LocalizationReport struct {
	// Candidates is the number of sources surviving correlation.
	Candidates int
	// TruePositives is how many actual sources are among candidates.
	TruePositives int
	// Missed is how many actual sources were wrongly eliminated.
	Missed int
}

// Evaluate compares a candidate set against the placement ground truth.
func Evaluate(candidates []int, p Placement) LocalizationReport {
	isCand := make(map[int]bool, len(candidates))
	for _, k := range candidates {
		isCand[k] = true
	}
	rep := LocalizationReport{Candidates: len(candidates)}
	for k, w := range p.Weight {
		if w <= 0 {
			continue
		}
		if isCand[k] {
			rep.TruePositives++
		} else {
			rep.Missed++
		}
	}
	return rep
}
