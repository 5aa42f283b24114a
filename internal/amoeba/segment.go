package amoeba

import "fmt"

// Segment is a block of machine memory, Amoeba's unit of low-level
// memory management. Segments are memory-resident (the paper:
// "To provide maximum communication performance, all segments are
// memory resident"), so allocation directly reserves machine memory.
// The runtime system uses segments to hold object replicas, which lets
// experiments report per-machine replica storage.
type Segment struct {
	m     *Machine
	id    int
	size  int64
	freed bool
}

// AllocSegment reserves a memory segment of size bytes.
func (m *Machine) AllocSegment(size int64) *Segment {
	if size < 0 {
		panic("amoeba: negative segment size")
	}
	m.nextSegID++
	m.memInUse += size
	if m.memInUse > m.memPeak {
		m.memPeak = m.memInUse
	}
	return &Segment{m: m, id: m.nextSegID, size: size}
}

// Resize grows or shrinks the segment, adjusting machine memory
// accounting.
func (s *Segment) Resize(size int64) {
	if s.freed {
		panic("amoeba: resize of freed segment")
	}
	s.m.memInUse += size - s.size
	if s.m.memInUse > s.m.memPeak {
		s.m.memPeak = s.m.memInUse
	}
	s.size = size
}

// Size reports the segment size in bytes.
func (s *Segment) Size() int64 { return s.size }

// Free releases the segment's memory. Freeing twice panics.
func (s *Segment) Free() {
	if s.freed {
		panic(fmt.Sprintf("amoeba: double free of segment %d", s.id))
	}
	s.freed = true
	s.m.memInUse -= s.size
}

// MemInUse reports bytes currently reserved by segments on the machine.
func (m *Machine) MemInUse() int64 { return m.memInUse }

// MemPeak reports the high-water mark of segment memory on the machine.
func (m *Machine) MemPeak() int64 { return m.memPeak }
