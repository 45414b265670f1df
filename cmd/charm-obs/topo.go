package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"charm/internal/topology"
)

// cmdTopo inspects the simulated machine models: the topology summary, the
// core-to-core latency matrix by class, and the latency CDF data behind
// Fig. 3.
func cmdTopo(args []string) {
	fs := flag.NewFlagSet("charm-obs topo", flag.ExitOnError)
	machine := fs.String("machine", "amd", "machine model: amd, intel, amd-nps4, small")
	cdf := fs.Bool("cdf", false, "print the core-to-core latency CDF (Fig. 3 data)")
	matrix := fs.Bool("matrix", false, "print the chiplet-to-chiplet latency matrix")
	diagram := fs.Bool("diagram", false, "print the package diagram (Fig. 2 style)")
	fs.Parse(args)

	var topo *topology.Topology
	switch *machine {
	case "amd":
		topo = topology.AMDMilan7713x2()
	case "intel":
		topo = topology.IntelSPR8488Cx2()
	case "amd-nps4":
		topo = topology.AMDMilanNPS4()
	case "small":
		topo = topology.Synthetic(4, 4)
	default:
		fmt.Fprintf(os.Stderr, "unknown machine %q\n", *machine)
		os.Exit(2)
	}

	fmt.Println(topo)
	fmt.Printf("latency classes (ns): intra-chiplet=%d inter-chiplet-near=%d inter-chiplet-far=%d inter-socket=%d\n",
		topo.Cost.CASIntraChiplet, topo.Cost.CASInterNear, topo.Cost.CASInterFar, topo.Cost.CASInterSocket)
	fmt.Printf("memory (ns): dram-local=%d dram-remote=%d; %d channels/node x %.1f B/ns\n",
		topo.Cost.DRAMLocal, topo.Cost.DRAMRemote, topo.ChannelsPerNode, topo.Cost.ChannelBandwidth)

	if *diagram {
		printDiagram(topo)
	}

	if *matrix {
		fmt.Println("\nchiplet-to-chiplet CAS latency (ns):")
		n := topo.NumChiplets()
		fmt.Printf("%6s", "")
		for j := 0; j < n; j++ {
			fmt.Printf("%6d", j)
		}
		fmt.Println()
		for i := 0; i < n; i++ {
			fmt.Printf("%6d", i)
			for j := 0; j < n; j++ {
				a := topo.FirstCoreOf(topology.ChipletID(i))
				b := topo.FirstCoreOf(topology.ChipletID(j))
				if i == j {
					b++ // same-chiplet pair, not same core
				}
				fmt.Printf("%6d", topo.CASLatency(a, b))
			}
			fmt.Println()
		}
	}

	if *cdf {
		fmt.Println("\ncore-to-core latency CDF (all pairs):")
		var lat []int64
		n := topo.NumCores()
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				lat = append(lat, topo.CASLatency(topology.CoreID(a), topology.CoreID(b)))
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		fmt.Println("latency_ns cumulative_fraction")
		prev := int64(-1)
		for i, l := range lat {
			if l != prev {
				fmt.Printf("%d %.4f\n", l, float64(i)/float64(len(lat)))
				prev = l
			}
		}
		fmt.Printf("%d 1.0000\n", lat[len(lat)-1])
	}
}

// printDiagram renders the package layout in the style of the paper's
// Fig. 2: chiplets around a central I/O die, per socket.
func printDiagram(t *topology.Topology) {
	l3 := fmt.Sprintf("%dK", t.L3PerChiplet>>10)
	if t.L3PerChiplet >= 1<<20 {
		l3 = fmt.Sprintf("%dM", t.L3PerChiplet>>20)
	}
	for s := 0; s < t.Sockets; s++ {
		fmt.Printf("\nsocket %d\n", s)
		perSocket := t.NodesPerSocket * t.ChipletsPerNode
		base := s * perSocket
		half := (perSocket + 1) / 2
		row := func(lo, hi int) {
			for ch := lo; ch < hi; ch++ {
				fmt.Printf("+-----------+ ")
			}
			fmt.Println()
			for ch := lo; ch < hi; ch++ {
				first := int(t.FirstCoreOf(topology.ChipletID(base + ch)))
				fmt.Printf("|CCD%-2d c%3d | ", base+ch, first)
			}
			fmt.Println()
			for ch := lo; ch < hi; ch++ {
				fmt.Printf("| %2dc L3%4s| ", t.CoresPerChiplet, l3)
			}
			fmt.Println()
			for ch := lo; ch < hi; ch++ {
				fmt.Printf("+-----------+ ")
			}
			fmt.Println()
		}
		row(0, half)
		ioWidth := half*14 - 1
		fmt.Printf("%s\n", center("[ I/O die: "+fmt.Sprint(t.ChannelsPerNode*t.NodesPerSocket)+" mem channels ]", ioWidth))
		row(half, perSocket)
	}
}

func center(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return strings.Repeat(" ", (w-len(s))/2) + s
}
