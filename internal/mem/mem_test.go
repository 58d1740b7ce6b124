package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestByteRoundTrip(t *testing.T) {
	m := New()
	m.StoreByte(0x1000, 0xAB)
	if got := m.LoadByte(0x1000); got != 0xAB {
		t.Fatalf("got %#x", got)
	}
	if got := m.LoadByte(0x1001); got != 0 {
		t.Fatalf("untouched byte: got %#x want 0", got)
	}
}

func TestWordRoundTrip(t *testing.T) {
	m := New()
	m.WriteWord(0x2000, 0xDEADBEEF)
	if got := m.ReadWord(0x2000); got != 0xDEADBEEF {
		t.Fatalf("got %#x", got)
	}
	// Little-endian byte order.
	if got := m.LoadByte(0x2000); got != 0xEF {
		t.Fatalf("LE low byte: got %#x", got)
	}
	if got := m.LoadByte(0x2003); got != 0xDE {
		t.Fatalf("LE high byte: got %#x", got)
	}
}

func TestPageStraddle(t *testing.T) {
	m := New()
	// 4KB pages: a word write at 0xFFE crosses into the next page.
	m.WriteWord(0xFFE, 0x11223344)
	if got := m.ReadWord(0xFFE); got != 0x11223344 {
		t.Fatalf("straddle word: got %#x", got)
	}
	m.WriteHalf(0xFFF, 0xA55A)
	if got := m.ReadHalf(0xFFF); got != 0xA55A {
		t.Fatalf("straddle half: got %#x", got)
	}
}

func TestDoubleRoundTrip(t *testing.T) {
	m := New()
	m.WriteDouble(0x3000, 0x0102030405060708)
	if got := m.ReadDouble(0x3000); got != 0x0102030405060708 {
		t.Fatalf("got %#x", got)
	}
}

func TestLoadImageAndReadRange(t *testing.T) {
	m := New()
	img := []byte{1, 2, 3, 4, 5, 6, 7}
	m.LoadImage(0xFFD, img) // crosses a page boundary
	if got := m.ReadRange(0xFFD, len(img)); !bytes.Equal(got, img) {
		t.Fatalf("got %v want %v", got, img)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var m Memory
	m.WriteWord(16, 42)
	if got := m.ReadWord(16); got != 42 {
		t.Fatalf("zero value memory: got %d", got)
	}
}

// TestRandomAgainstOracle drives random mixed-size accesses and compares
// against a plain map of bytes.
func TestRandomAgainstOracle(t *testing.T) {
	m := New()
	oracle := make(map[uint32]byte)
	r := rand.New(rand.NewSource(42))
	read := func(a uint32) byte { return oracle[a] }
	for i := 0; i < 20000; i++ {
		// Confine to a few pages so reads often hit written data.
		addr := uint32(r.Intn(3 * 4096))
		switch r.Intn(6) {
		case 0:
			b := byte(r.Uint32())
			m.StoreByte(addr, b)
			oracle[addr] = b
		case 1:
			v := uint16(r.Uint32())
			m.WriteHalf(addr, v)
			oracle[addr] = byte(v)
			oracle[addr+1] = byte(v >> 8)
		case 2:
			v := r.Uint32()
			m.WriteWord(addr, v)
			for k := 0; k < 4; k++ {
				oracle[addr+uint32(k)] = byte(v >> (8 * k))
			}
		case 3:
			if got, want := m.LoadByte(addr), read(addr); got != want {
				t.Fatalf("byte @%#x: got %#x want %#x", addr, got, want)
			}
		case 4:
			want := uint16(read(addr)) | uint16(read(addr+1))<<8
			if got := m.ReadHalf(addr); got != want {
				t.Fatalf("half @%#x: got %#x want %#x", addr, got, want)
			}
		default:
			var want uint32
			for k := 3; k >= 0; k-- {
				want = want<<8 | uint32(read(addr+uint32(k)))
			}
			if got := m.ReadWord(addr); got != want {
				t.Fatalf("word @%#x: got %#x want %#x", addr, got, want)
			}
		}
	}
}

// TestUnwrittenReadsAllocateNothing: reading memory that was never written
// returns zeros without allocating a page or a directory, in an empty
// memory and next to a written page.
func TestUnwrittenReadsAllocateNothing(t *testing.T) {
	var m Memory
	m.WriteWord(0x10000, 1)
	reads := func() {
		for _, a := range []uint32{0, 0x11000, 0x400000, 0xFFFFF000, 0xFFFFFFFE, 0x10FFE} {
			if m.LoadByte(a)|byte(m.ReadHalf(a))|byte(m.ReadWord(a))|byte(m.ReadDouble(a)) != 0 {
				t.Fatalf("unwritten memory at %#x reads non-zero", a)
			}
		}
	}
	if n := testing.AllocsPerRun(100, reads); n != 0 {
		t.Fatalf("reads of unwritten memory allocated %v times per run", n)
	}
	dirs := 0
	for _, d := range m.dirs {
		if d != nil {
			dirs++
		}
	}
	if dirs != 1 {
		t.Fatalf("%d directories after one written page, want 1", dirs)
	}
}

// FuzzMemory drives loads and stores of every size, and LoadImage and
// ReadRange spans, from arbitrary bytes at addresses near page, directory
// and address-space boundaries, and checks every read against a plain map
// of bytes. An access past 0xFFFFFFFF wraps to address 0.
func FuzzMemory(f *testing.F) {
	f.Add([]byte{0, 4, 0xff, 0x0f, 1, 7, 2, 4, 0xff, 0x0f, 9, 4, 0xfe, 0x0f, 40})
	f.Add([]byte{4, 4, 0xf0, 0xff, 200, 3, 9, 4, 0, 0, 255, 8, 4, 0xfc, 0x0f})
	f.Add([]byte{3, 2, 0xfc, 0x0f, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 8, 2, 0xfc, 0x0f})
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		value := func(n int) (v uint64) {
			for i := range n {
				v |= uint64(next()) << (8 * i)
			}
			return v
		}
		// Each address is an offset of up to ±32 KiB from a base next to
		// a boundary: the zero page, a page edge, the 4 MiB directory edge,
		// and the last page of the address space.
		bases := []uint32{0, 0x1000, 0x10000, 0x400000, 0x7FFFF000, 0xFFFFF000}
		var m Memory
		ref := map[uint32]byte{}
		store := func(addr uint32, v uint64, n int) {
			for i := range n {
				ref[addr+uint32(i)] = byte(v >> (8 * i))
			}
		}
		load := func(addr uint32, n int) (v uint64) {
			for i := range n {
				v |= uint64(ref[addr+uint32(i)]) << (8 * i)
			}
			return v
		}
		for len(ops) > 0 {
			op := next()
			addr := bases[int(next())%len(bases)] + uint32(int32(int16(value(2))))
			var got, want uint64
			var n int
			switch op % 10 {
			case 0:
				v := value(1)
				m.StoreByte(addr, byte(v))
				store(addr, v, 1)
				continue
			case 1:
				v := value(2)
				m.WriteHalf(addr, uint16(v))
				store(addr, v, 2)
				continue
			case 2:
				v := value(4)
				m.WriteWord(addr, uint32(v))
				store(addr, v, 4)
				continue
			case 3:
				v := value(8)
				m.WriteDouble(addr, v)
				store(addr, v, 8)
				continue
			case 4:
				img := make([]byte, int(next())*37)
				for i := range img {
					img[i] = byte(i*7) ^ op
				}
				m.LoadImage(addr, img)
				for i, b := range img {
					ref[addr+uint32(i)] = b
				}
				continue
			case 5:
				got, want, n = uint64(m.LoadByte(addr)), load(addr, 1), 1
			case 6:
				got, want, n = uint64(m.ReadHalf(addr)), load(addr, 2), 2
			case 7:
				got, want, n = uint64(m.ReadWord(addr)), load(addr, 4), 4
			case 8:
				got, want, n = m.ReadDouble(addr), load(addr, 8), 8
			default:
				span := m.ReadRange(addr, int(next())*37)
				for i, b := range span {
					if w := ref[addr+uint32(i)]; b != w {
						t.Fatalf("ReadRange(%#x, %d)[%d] = %#x, want %#x", addr, len(span), i, b, w)
					}
				}
				continue
			}
			if got != want {
				t.Fatalf("%d-byte read at %#x = %#x, want %#x", n, addr, got, want)
			}
		}
	})
}
