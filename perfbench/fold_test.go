package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"noctg/internal/noc.(*router).tick":                  "noc.router",
		"noctg/internal/noc.(*Network).Tick.func1":           "noc.router",
		"noctg/internal/noc.New":                             "noc.router",
		"noctg/internal/noc.(*masterNI).tick":                "noc.ni",
		"noctg/internal/noc.slaveNI.idle":                    "noc.ni",
		"noctg/internal/sweep.Map[...].func1":                "sweep",
		"noctg/internal/scenario.Curves":                     "sweep",
		"noctg/internal/exp.TranslateAll":                    "platform",
		"noctg/internal/cpu.(*Core).Tick":                    "cpu",
		"noctg/internal/shard.(*Runner).segWorker":           "shard",
		"runtime.mallocgc":                                   "",
		"main.runPaper":                                      "",
		"noctg.PrivRange":                                    "",
		"noctg/internal/stochastic.(*Generator).Tick":        "stochastic",
		"noctg/internal/analytic.(*Estimator).compileXPipes": "analytic",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb builds protobuf messages field by field.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3), v)
}

func (b pb) bytes(num int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	return append(binary.AppendUvarint(b, uint64(len(data))), data...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// handProfile encodes a CPU profile with five samples. Location 2 holds
// an inlined frame: cache.Lookup inlined into cpu.Tick.
func handProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc",                          // 5: function 1
		"noctg/internal/noc.(*router).tryForward",   // 6: function 2
		"noctg/internal/cache.(*Cache).Lookup",      // 7: function 3
		"noctg/internal/cpu.(*Core).Tick",           // 8: function 4
		"noctg/internal/noc.(*masterNI).acceptFlit", // 9: function 5
		"runtime.gcBgMarkWorker",                    // 10: function 6
		"main.runPaper",                             // 11: function 7
	}
	var p pb
	p = p.bytes(1, pb{}.varint(1, 1).varint(2, 2)) // samples/count
	p = p.bytes(1, pb{}.varint(1, 3).varint(2, 4)) // cpu/nanoseconds
	for id := uint64(1); id <= 7; id++ {
		p = p.bytes(5, pb{}.varint(1, id).varint(2, id+4))
	}
	// location id → function ids, innermost first
	locs := map[uint64][]uint64{1: {1}, 2: {3, 4}, 3: {2}, 4: {5}, 5: {6}, 6: {7}}
	for id := uint64(1); id <= 6; id++ {
		loc := pb{}.varint(1, id)
		for _, fn := range locs[id] {
			loc = loc.bytes(4, pb{}.varint(1, fn))
		}
		p = p.bytes(4, loc)
	}
	// Stacks are leaf first.
	p = p.bytes(2, pb{}.bytes(1, packed(1, 3, 6)).bytes(2, packed(4, 40))) // mallocgc under router → noc.router
	p = p.bytes(2, pb{}.bytes(1, packed(2, 6)).bytes(2, packed(2, 20)))    // inlined Lookup → cache
	p = p.bytes(2, pb{}.bytes(1, packed(4, 3)).bytes(2, packed(1, 10)))    // NI under router → noc.ni
	p = p.bytes(2, pb{}.bytes(1, packed(5)).bytes(2, packed(3, 30)))       // GC worker → runtime
	// Unpacked repeated fields decode too.
	p = p.bytes(2, pb{}.varint(1, 1).varint(1, 6).varint(2, 1).varint(2, 5)) // mallocgc under main → runtime
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldHandBuiltProfile(t *testing.T) {
	prof, err := decodeProfile(handProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	f := foldProfile(prof)
	want := map[string]int64{"noc.router": 40, "cache": 20, "noc.ni": 10, "runtime": 35}
	for _, l := range layers {
		if f.ns[l] != want[l] {
			t.Errorf("layer %s: %d ns, want %d", l, f.ns[l], want[l])
		}
	}
	if f.totalNS != 105 {
		t.Errorf("total %d ns, want 105", f.totalNS)
	}
}

// TestDecodeRuntimeProfile checks the decoder against the format
// runtime/pprof actually writes.
func TestDecodeRuntimeProfile(t *testing.T) {
	stop, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		x++
	}
	prof, err := stop()
	if err != nil {
		t.Fatal(err)
	}
	f := foldProfile(prof)
	if f.totalNS <= 0 || f.ns["runtime"] != f.totalNS {
		t.Fatalf("spin loop folded to %v (total %d ns), want all of it in runtime", f.ns, f.totalNS)
	}
	if len(prof.samples) == 0 || len(prof.samples[0].stack) == 0 {
		t.Fatal("decoded samples carry no stacks")
	}
}
