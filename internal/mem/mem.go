// Package mem provides the flat 32-bit physical memory backing the FRVL
// simulator — the stand-in for the main memory behind the paper's FR-V
// caches (the evaluation platform of Section 4). Memory is sparse: 4KB
// pages are allocated on first touch, so a full 4GB address space costs
// nothing until used. All multi-byte accesses are little-endian.
package mem

import "encoding/binary"

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	// A directory maps 4 MiB: dirLen pages.
	dirShift = 22
	dirLen   = 1 << (dirShift - pageShift)
)

type page [pageSize]byte

// Memory is a sparse byte-addressable memory. The zero value is ready to use.
// Memory is not safe for concurrent use; each simulated machine owns one.
//
// Pages hang off a two-level table: dirs holds one directory per 4 MiB, and
// a directory one pointer per page, so finding a page is two indexed loads
// whichever pages a program touches in turn. A nil directory or page reads
// as zeros and is allocated by the first store into it. The last page
// found is kept in front of the table: most accesses fall in the page of
// the one before.
type Memory struct {
	dirs [1 << (32 - dirShift)]*[dirLen]*page

	lastPN uint32
	lastP  *page
}

// New returns an empty memory.
func New() *Memory { return new(Memory) }

// page returns the page holding addr, or nil if it was never written.
func (m *Memory) page(addr uint32) *page {
	pn := addr >> pageShift
	if m.lastP != nil && pn == m.lastPN {
		return m.lastP
	}
	if d := m.dirs[addr>>dirShift]; d != nil {
		if p := d[pn&(dirLen-1)]; p != nil {
			m.lastPN, m.lastP = pn, p
			return p
		}
	}
	return nil
}

// writable returns the page holding addr, allocating it if needed.
func (m *Memory) writable(addr uint32) *page {
	if p := m.page(addr); p != nil {
		return p
	}
	return m.alloc(addr)
}

// alloc allocates addr's page, and its directory if that is missing too,
// and makes it the cached page.
func (m *Memory) alloc(addr uint32) *page {
	d := m.dirs[addr>>dirShift]
	if d == nil {
		d = new([dirLen]*page)
		m.dirs[addr>>dirShift] = d
	}
	p := new(page)
	d[addr>>pageShift&(dirLen-1)] = p
	m.lastPN, m.lastP = addr>>pageShift, p
	return p
}

// LoadByte returns the byte at addr (0 if the page was never written).
func (m *Memory) LoadByte(addr uint32) byte {
	if p := m.page(addr); p != nil {
		return p[addr&(pageSize-1)]
	}
	return 0
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint32, b byte) {
	m.writable(addr)[addr&(pageSize-1)] = b
}

// ReadWord returns the little-endian 32-bit word at addr. The fast path
// assumes the access does not straddle a page boundary, which holds for all
// aligned accesses.
func (m *Memory) ReadWord(addr uint32) uint32 {
	off := addr & (pageSize - 1)
	if off <= pageSize-4 {
		if p := m.page(addr); p != nil {
			return binary.LittleEndian.Uint32(p[off:])
		}
		return 0
	}
	return uint32(m.LoadByte(addr)) | uint32(m.LoadByte(addr+1))<<8 |
		uint32(m.LoadByte(addr+2))<<16 | uint32(m.LoadByte(addr+3))<<24
}

// WriteWord stores the little-endian 32-bit word v at addr.
func (m *Memory) WriteWord(addr uint32, v uint32) {
	off := addr & (pageSize - 1)
	if off <= pageSize-4 {
		binary.LittleEndian.PutUint32(m.writable(addr)[off:], v)
		return
	}
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
	m.StoreByte(addr+2, byte(v>>16))
	m.StoreByte(addr+3, byte(v>>24))
}

// ReadHalf returns the little-endian 16-bit value at addr.
func (m *Memory) ReadHalf(addr uint32) uint16 {
	off := addr & (pageSize - 1)
	if off <= pageSize-2 {
		if p := m.page(addr); p != nil {
			return binary.LittleEndian.Uint16(p[off:])
		}
		return 0
	}
	return uint16(m.LoadByte(addr)) | uint16(m.LoadByte(addr+1))<<8
}

// WriteHalf stores the little-endian 16-bit value v at addr.
func (m *Memory) WriteHalf(addr uint32, v uint16) {
	off := addr & (pageSize - 1)
	if off <= pageSize-2 {
		binary.LittleEndian.PutUint16(m.writable(addr)[off:], v)
		return
	}
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
}

// ReadDouble returns the little-endian 64-bit value at addr.
func (m *Memory) ReadDouble(addr uint32) uint64 {
	return uint64(m.ReadWord(addr)) | uint64(m.ReadWord(addr+4))<<32
}

// WriteDouble stores the little-endian 64-bit value v at addr.
func (m *Memory) WriteDouble(addr uint32, v uint64) {
	m.WriteWord(addr, uint32(v))
	m.WriteWord(addr+4, uint32(v>>32))
}

// LoadImage copies img into memory starting at addr, a page-sized span at
// a time. Like every access, it wraps from the top of the address space to
// address 0.
func (m *Memory) LoadImage(addr uint32, img []byte) {
	for len(img) > 0 {
		n := copy(m.writable(addr)[addr&(pageSize-1):], img)
		img, addr = img[n:], addr+uint32(n)
	}
}

// ReadRange copies n bytes starting at addr into a fresh slice.
func (m *Memory) ReadRange(addr uint32, n int) []byte {
	out := make([]byte, n)
	for rest := out; len(rest) > 0; {
		off := addr & (pageSize - 1)
		k := min(len(rest), pageSize-int(off))
		if p := m.page(addr); p != nil {
			copy(rest[:k], p[off:])
		}
		rest, addr = rest[k:], addr+uint32(k)
	}
	return out
}
