package routing

import (
	"fmt"
	"os"
	"testing"
)

// TestDebugStuck is a diagnostic for delivery stalls; it prints where
// packets are stuck. Run it explicitly with CBAR_DEBUG=1 when chasing a
// progress bug; it is skipped otherwise.
func TestDebugStuck(t *testing.T) {
	if os.Getenv("CBAR_DEBUG") == "" {
		t.Skip("diagnostic; set CBAR_DEBUG=1 to run")
	}
	n := build(t, Min, testOptions(), 7)
	rnd := &testRand{s: 0xfeed}
	driveUniform(n, rnd, 300, 8)
	driveAdversarial(n, rnd, 300, 8, 1)
	ok := n.Drain(60000)
	fmt.Printf("drained=%v inflight=%d gen=%d del=%d blocked=%d\n",
		ok, n.InFlight, n.NumGenerated, n.NumDelivered, n.NumBlocked)
	if ok {
		return
	}
	nicTotal := 0
	for i := 0; i < n.Topo.Nodes; i++ {
		nicTotal += n.NICBacklog(i)
	}
	fmt.Printf("NIC backlog: %d\n", nicTotal)
	inq := 0
	for _, r := range n.Routers {
		for port := 0; port < r.NumPorts(); port++ {
			for vc := 0; vc < r.VCs(port); vc++ {
				cnt := r.QueuedPackets(port, vc)
				inq += cnt
				if cnt > 0 {
					p := r.HeadPacket(port, vc)
					min := n.Topo.MinimalNextPort(r.ID, int(p.Dst))
					fmt.Printf("r%d port%d(%v) vc%d: %d pkts; head %v granted=%v seen=%v reqMin=%d credits=%d outfree=%d linkbusy=%v\n",
						r.ID, port, r.Kind(port), vc, cnt, p, r.HeadGranted(port, vc), p.HeadSeen,
						min, r.Credits(min, 0), r.OutFree(min), r.LinkBusy(min))
				}
			}
		}
	}
	fmt.Printf("in queues: %d\n", inq)
	t.Fatal("stuck")
}
