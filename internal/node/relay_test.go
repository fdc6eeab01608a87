package node

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// FuzzDecodePacket pins the identity zero-copy forwarding relies on: a
// relay sends on exactly the bytes it received, which is the same packet
// only if Encode(DecodePacket(b)) == b for every b long enough to hold a
// header. Shorter inputs must fail with ErrShortPacket, never panic.
func FuzzDecodePacket(f *testing.F) {
	f.Add(make([]byte, 5))
	f.Add([]byte{})
	f.Add(make([]byte, headerLen))
	f.Add(Packet{Src: 3, Dst: 9, Seq: 1 << 40, Payload: []byte("hello relay")}.Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePacket(b)
		if len(b) < headerLen {
			if err != ErrShortPacket {
				t.Fatalf("DecodePacket(%d bytes) err = %v, want ErrShortPacket", len(b), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("DecodePacket(%d bytes): %v", len(b), err)
		}
		if got := p.Encode(); !bytes.Equal(got, b) {
			t.Fatalf("Encode(DecodePacket(b)) = %x, want %x", got, b)
		}
	})
}

// TestRelayAllocsPerPacket pins zero-copy forwarding on a 3-node line: a
// packet is encoded once at the source, and neither the transit node nor
// the destination copies it again, so a packet costs at most one payload
// allocation end to end. A per-hop re-encode would make it three.
func TestRelayAllocsPerPacket(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; the allocation pin cannot hold")
	}
	sched := sim.NewScheduler()
	nodes, _ := Line(sched, 3, testEng(), testPipe(), sim.NewRNG(1))
	src, dst := nodes[0], nodes[2]
	delivered := 0
	dst.OnDeliver = func(sim.Time, Packet) { delivered++ }
	payload := make([]byte, 64)
	const batch = 32
	round := func() {
		for i := 0; i < batch; i++ {
			if !src.Send(dst.ID(), payload) {
				t.Fatal("send refused")
			}
		}
		sched.RunFor(50 * sim.Millisecond)
	}
	for i := 0; i < 10; i++ { // warm pools, rings, maps and scratch capacities
		round()
	}
	per := testing.AllocsPerRun(20, round) / batch
	if want := (10 + 21) * batch; delivered != want {
		t.Fatalf("delivered %d packets, want %d", delivered, want)
	}
	if per > 1 {
		t.Fatalf("relay allocates %.2f per packet end to end, want at most 1", per)
	}
}
