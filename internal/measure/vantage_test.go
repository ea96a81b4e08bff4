package measure

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"spooftrack/internal/topo"
)

// vantagesGolden is the FNV-64a digest of the default world's vantage
// set (250 collectors, 1 600 probes, seed 1) on the 10 000-AS
// internet-shaped graph of the truth campaign. It was recorded while the
// collector ranking still counted customers by building their list.
const vantagesGolden = 0x10dbb2a4ae7bc488

// internet10k generates the truth campaign's 10 000-AS graph.
func internet10k(t testing.TB) *topo.Graph {
	t.Helper()
	g, err := topo.Generate(topo.InternetGenParams(29, 10000))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestChooseVantagesDigest10k(t *testing.T) {
	v := ChooseVantages(internet10k(t), 1, 250, 1600)
	h := fnv.New64a()
	var buf [4]byte
	for _, xs := range [][]int{v.Collectors, v.Probes} {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(xs)))
		h.Write(buf[:])
		for _, i := range xs {
			binary.LittleEndian.PutUint32(buf[:], uint32(i))
			h.Write(buf[:])
		}
	}
	if got := h.Sum64(); got != vantagesGolden {
		t.Errorf("vantage digest %#x, golden %#x", got, uint64(vantagesGolden))
	}
}
