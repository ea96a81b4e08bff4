package peering

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"spooftrack/internal/topo"
)

// providersGolden is the FNV-64a digest of the seven providers
// chooseProviders binds on the 10 000-AS internet-shaped graph of the
// truth campaign. It was recorded while the candidate ranking still
// counted customers by building their list.
const providersGolden = 0xe39901906b86f06d

func TestChooseProvidersDigest10k(t *testing.T) {
	g, err := topo.Generate(topo.InternetGenParams(29, 10000))
	if err != nil {
		t.Fatal(err)
	}
	provs, err := chooseProviders(g, len(TableI))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [4]byte
	for _, p := range provs {
		binary.LittleEndian.PutUint32(buf[:], uint32(p))
		h.Write(buf[:])
	}
	if got := h.Sum64(); got != providersGolden {
		t.Errorf("providers %v: digest %#x, golden %#x", provs, got, uint64(providersGolden))
	}
}
