package edgetpu

import (
	"strings"
	"testing"
)

func TestProgramCyclesMatchEstimate(t *testing.T) {
	m := buildFloatNet(4, 30, 300, 5, 90)
	qm := quantizeNet(t, m, 4, 30, 91)
	cm, err := Compile(qm, DefaultUSB())
	if err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(DefaultUSB())
	if _, err := dev.LoadModel(cm); err != nil {
		t.Fatal(err)
	}
	est, err := dev.EstimateInvoke()
	if err != nil {
		t.Fatal(err)
	}
	if got := cm.ProgramCycles(); got != est.Cycles {
		t.Fatalf("program cycles %d, estimator reports %d", got, est.Cycles)
	}
	// And the functional path must agree too: on a fault-free device an
	// estimate is exactly the Timing the invoke it prices observes, for a
	// full batch and for row prefixes.
	for _, rows := range []int{0, 1, cm.BatchCapacity() - 1} {
		want, err := dev.EstimateInvokeBatch(rows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dev.InvokeBatch(rows)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("rows %d: invoke %+v vs estimate %+v", rows, got, want)
		}
	}
}

func TestProgramStructure(t *testing.T) {
	m := buildFloatNet(2, 20, 128, 3, 92)
	qm := quantizeNet(t, m, 2, 20, 93)
	cm, err := Compile(qm, DefaultUSB())
	if err != nil {
		t.Fatal(err)
	}
	prog := cm.Program()
	if len(prog) == 0 {
		t.Fatal("empty program for delegated model")
	}
	// Every MATMUL_TILE must be preceded by its LOAD_TILE.
	for i, in := range prog {
		if in.Kind == InstrMatMulTile {
			if i == 0 || prog[i-1].Kind != InstrLoadTile ||
				prog[i-1].TileK != in.TileK || prog[i-1].TileU != in.TileU {
				t.Fatalf("instruction %d: matmul tile without matching load", i)
			}
		}
		if in.Cycles == 0 {
			t.Fatalf("instruction %d has zero cycles", i)
		}
	}
	// FC1 (d=128, n=20) on a 64×64 array: 1 depth tile × 2 unit tiles.
	loads := 0
	for _, in := range prog {
		if in.Kind == InstrLoadTile && in.Op == 1 {
			loads++
		}
	}
	if loads != 2 {
		t.Fatalf("FC1 loaded %d tiles, want 2", loads)
	}
}

func TestProgramEmptyForCPUOnly(t *testing.T) {
	m := buildFloatNet(1, 8, 32, 2, 94) // float model: nothing delegates
	cm, err := Compile(m, DefaultUSB())
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.Program()) != 0 {
		t.Fatal("CPU-only model has a device program")
	}
}

func TestDisassembleReadable(t *testing.T) {
	m := buildFloatNet(2, 20, 128, 3, 95)
	qm := quantizeNet(t, m, 2, 20, 96)
	cm, err := Compile(qm, DefaultUSB())
	if err != nil {
		t.Fatal(err)
	}
	asm := cm.Disassemble()
	for _, want := range []string{"FULLY_CONNECTED", "LUT", "total", "cycles"} {
		if !strings.Contains(asm, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, asm)
		}
	}
}

func TestInstrKindString(t *testing.T) {
	if InstrLoadTile.String() != "LOAD_TILE" || InstrLUT.String() != "LUT" {
		t.Fatal("instruction names wrong")
	}
	if !strings.HasPrefix(InstrKind(99).String(), "INSTR(") {
		t.Fatal("unknown kind should render numerically")
	}
}

func TestPCIeFasterThanUSB(t *testing.T) {
	// The PCIe variant exists for link-sensitivity studies: identical
	// compute, cheaper transfers and dispatch.
	m := buildFloatNet(8, 100, 512, 4, 97)
	qm := quantizeNet(t, m, 8, 100, 98)

	invoke := func(cfg Config) Timing {
		cm, err := Compile(qm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dev := NewDevice(cfg)
		if _, err := dev.LoadModel(cm); err != nil {
			t.Fatal(err)
		}
		timing, err := dev.EstimateInvoke()
		if err != nil {
			t.Fatal(err)
		}
		return timing
	}
	usb := invoke(DefaultUSB())
	pcie := invoke(DefaultPCIe())
	if pcie.Compute != usb.Compute {
		t.Fatalf("link change altered compute: %v vs %v", pcie.Compute, usb.Compute)
	}
	if pcie.Total() >= usb.Total() {
		t.Fatalf("PCIe (%v) not faster than USB (%v)", pcie.Total(), usb.Total())
	}
}

func TestMemoryMapLayout(t *testing.T) {
	m := buildFloatNet(2, 20, 192, 4, 120)
	qm := quantizeNet(t, m, 2, 20, 121)
	cm, err := Compile(qm, DefaultUSB())
	if err != nil {
		t.Fatal(err)
	}
	mm := cm.MemoryMap()
	// Delegated constants: w1, b1, w2, b2.
	if len(mm.Regions) != 4 {
		t.Fatalf("%d regions", len(mm.Regions))
	}
	// Offsets must be aligned, increasing and non-overlapping.
	prevEnd := 0
	for i, r := range mm.Regions {
		if r.Offset%64 != 0 {
			t.Fatalf("region %d offset %d not 64-aligned", i, r.Offset)
		}
		if r.Offset < prevEnd {
			t.Fatalf("region %d overlaps previous", i)
		}
		prevEnd = r.Offset + r.Bytes
	}
	if mm.Used < cm.ParamBytes {
		t.Fatalf("Used %d below raw param bytes %d", mm.Used, cm.ParamBytes)
	}
	// Alignment padding is bounded: at most 63 bytes per region.
	if mm.Used > cm.ParamBytes+64*len(mm.Regions) {
		t.Fatalf("Used %d exceeds params+padding bound", mm.Used)
	}
	if mm.Resident != cm.Resident {
		t.Fatal("residency disagrees with compiler")
	}
	s := mm.String()
	if !strings.Contains(s, "parameter memory") || !strings.Contains(s, "0x00000000") {
		t.Fatalf("map render:\n%s", s)
	}
}

func TestMemoryMapEmptyForCPUOnly(t *testing.T) {
	m := buildFloatNet(1, 8, 32, 2, 122)
	cm, err := Compile(m, DefaultUSB())
	if err != nil {
		t.Fatal(err)
	}
	mm := cm.MemoryMap()
	if len(mm.Regions) != 0 || mm.Used != 0 {
		t.Fatalf("CPU-only model has memory map %+v", mm)
	}
}
