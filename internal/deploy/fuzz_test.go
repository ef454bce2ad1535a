package deploy

import (
	"testing"

	"repro/internal/croupier"
	"repro/internal/view"
)

// FuzzDecode throws arbitrary datagrams at the decoder in both states
// it is used in — fresh (the package-level Decode) and long-lived with
// recycled messages (the Decoder a node's driver keeps). Neither may
// panic, a warm pool must not change accept/reject or the decoded kind,
// and hostile inputs (truncated bodies, inflated element counts) must
// come back as errors, not as runaway work.
func FuzzDecode(f *testing.F) {
	// Golden encodes of every message kind seed the corpus.
	f.Add(EncodeShuffleReq(&croupier.ShuffleReq{
		From: sampleDesc(1),
		Pub:  []view.Descriptor{sampleDesc(2), sampleDesc(3)},
		Pri:  []view.Descriptor{sampleDesc(4)},
		Estimates: []croupier.Estimate{
			{Node: 7, Value: 0.25, Age: 3},
			{Node: 9, Value: 0.5, Age: 0},
		},
	}))
	f.Add(EncodeShuffleRes(&croupier.ShuffleRes{
		From:      sampleDesc(5),
		Pub:       []view.Descriptor{sampleDesc(6)},
		Estimates: []croupier.Estimate{{Node: 5, Value: 0.75, Age: 1}},
	}))
	f.Add(EncodeBootRegister(BootRegister{Desc: sampleDesc(7)}))
	f.Add(EncodeBootList(BootList{Max: 5}))
	f.Add(EncodeBootListRes(BootListRes{Descs: []view.Descriptor{sampleDesc(8), sampleDesc(9)}}))
	f.Add(EncodeKeepalive(Keepalive{From: 11}))
	// Hostile shapes: empty, bare kinds, truncated shuffle, a shuffle
	// request claiming 255 descriptors with no body behind the claim.
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2, 3})
	f.Add(EncodeShuffleReq(&croupier.ShuffleReq{From: sampleDesc(1)})[:10])
	f.Add(append([]byte{1, 0}, append(make([]byte, 17), 255)...))

	var dec Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		plainMsg, plainErr := Decode(data)
		pooledMsg, pooledErr := dec.Decode(data)
		if (plainErr == nil) != (pooledErr == nil) {
			t.Fatalf("decode paths disagree: plain err=%v, pooled err=%v", plainErr, pooledErr)
		}
		if plainErr != nil {
			return
		}
		plainKind, pooledKind := kindOf(plainMsg), kindOf(pooledMsg)
		if plainKind != pooledKind {
			t.Fatalf("decode paths disagree on kind: %s vs %s", plainKind, pooledKind)
		}
		switch m := pooledMsg.(type) {
		case *croupier.ShuffleReq:
			m.Release()
		case *croupier.ShuffleRes:
			m.Release()
		}
	})
}

func kindOf(m any) string {
	switch m.(type) {
	case *croupier.ShuffleReq:
		return "shuffle-req"
	case *croupier.ShuffleRes:
		return "shuffle-res"
	case BootRegister:
		return "boot-register"
	case BootList:
		return "boot-list"
	case BootListRes:
		return "boot-list-res"
	case Keepalive:
		return "keepalive"
	default:
		return "unknown"
	}
}

// TestInflatedCountClaimIsCheap pins the pre-loop length validation: a
// datagram claiming 255 list elements with nothing behind the claim is
// rejected up front, without allocating or appending per claimed
// element — only the error value itself costs anything.
func TestInflatedCountClaimIsCheap(t *testing.T) {
	// kind=shuffle-req, flags=0, a zeroed 17-byte from-descriptor,
	// then a 255-element public-list claim and no body.
	hostile := append([]byte{1, 0}, append(make([]byte, 17), 255)...)
	var dec Decoder
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := dec.Decode(hostile); err == nil {
			t.Fatal("inflated count claim decoded successfully")
		}
	})
	if allocs > 4 {
		t.Fatalf("rejecting an inflated claim cost %.0f allocs per run, want ≤ 4", allocs)
	}
}
