package video

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/transport"
)

// Request is a parsed range request: "GET <id> <offset> <length>\n".
type Request struct {
	ID     string
	Offset uint64
	Length uint64
}

// FormatRequest renders the request line.
func FormatRequest(r Request) string {
	b := make([]byte, 0, len("GET   \n")+len(r.ID)+2*20)
	b = append(append(append(b, "GET "...), r.ID...), ' ')
	b = append(strconv.AppendUint(b, r.Offset, 10), ' ')
	b = append(strconv.AppendUint(b, r.Length, 10), '\n')
	return string(b)
}

// ParseRequest parses a request line. Offset and length are decimal and
// must each make up their whole field.
func ParseRequest(line string) (Request, error) {
	var r Request
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) != 4 || fields[0] != "GET" {
		return r, fmt.Errorf("video: malformed request %q", line)
	}
	r.ID = fields[1]
	var err error
	if r.Offset, err = strconv.ParseUint(fields[2], 10, 64); err != nil {
		return r, fmt.Errorf("video: bad offset: %w", err)
	}
	if r.Length, err = strconv.ParseUint(fields[3], 10, 64); err != nil {
		return r, fmt.Errorf("video: bad length: %w", err)
	}
	return r, nil
}

// maxRequestLine bounds a pending request line, far above the longest line
// FormatRequest renders for a catalog ID. It is a limit on what a peer may
// send without a newline, not a tuning knob: without it a peer could make
// the server hold, and rescan, up to a stream window of bytes per stream.
const maxRequestLine = 4 << 10

// Server is the media-server application: it answers range requests over
// streams of a transport connection, tagging the first video frame with
// the highest priority via the stream_send API so XLINK's frame-priority
// re-injection can accelerate it (Sec 5.1).
type Server struct {
	conn    *transport.Conn
	catalog map[string]Video
	// FirstFramePriority enables first-frame tagging.
	FirstFramePriority bool

	pending map[uint64]*strings.Builder // partial request lines per stream
	// Served counts bytes served per video ID.
	Served map[string]uint64
}

// NewServer attaches a media server to a server-side connection. It takes
// over the connection's stream callbacks.
func NewServer(conn *transport.Conn, catalog []Video) *Server {
	s := &Server{
		conn:               conn,
		catalog:            make(map[string]Video, len(catalog)),
		pending:            make(map[uint64]*strings.Builder),
		Served:             make(map[string]uint64),
		FirstFramePriority: true,
	}
	for _, v := range catalog {
		s.catalog[v.ID] = v
	}
	return s
}

// OnStreamData is the transport callback: accumulate the request line and
// serve the range when complete. The Requester closes its stream after the
// request line, so the FIN usually arrives alone, after the request was
// served: a FIN with no data and no pending bytes ends the stream and parses
// nothing. Only the new bytes are searched for the newline, and a stream
// whose line would pass maxRequestLine loses its pending bytes and is asked
// to stop sending.
func (s *Server) OnStreamData(now time.Duration, rs *transport.RecvStream, data []byte, fin bool) {
	b := s.pending[rs.ID()]
	if len(data) == 0 && (b == nil || b.Len() == 0) {
		delete(s.pending, rs.ID())
		return
	}
	if b == nil {
		b = &strings.Builder{}
		s.pending[rs.ID()] = b
	}
	if b.Len()+len(data) > maxRequestLine {
		delete(s.pending, rs.ID())
		s.conn.StopSending(rs.ID(), 0x11) // application: request line too long
		return
	}
	b.Write(data)
	if bytes.IndexByte(data, '\n') < 0 && !fin {
		return
	}
	delete(s.pending, rs.ID())
	req, err := ParseRequest(b.String())
	if err != nil {
		return
	}
	s.serve(rs.ID(), req)
}

// serve writes the requested range onto the stream.
func (s *Server) serve(streamID uint64, req Request) {
	v, ok := s.catalog[req.ID]
	if !ok {
		ss := s.conn.Stream(streamID)
		ss.Close()
		return
	}
	end := req.Offset + req.Length
	if end > v.Size || req.Length == 0 {
		end = v.Size
	}
	if req.Offset >= end {
		ss := s.conn.Stream(streamID)
		ss.Close()
		return
	}
	length := end - req.Offset
	ss := s.conn.Stream(streamID)
	// Synthesize deterministic content (byte k of video = hash-ish of k)
	// into a borrowed buffer: Write copies it into the stream's segments.
	buf, _ := contentBufs.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	if uint64(cap(*buf)) < length {
		*buf = make([]byte, length)
	}
	payload := (*buf)[:length]
	fillContent(payload, req.ID, req.Offset)
	if s.FirstFramePriority && req.Offset < v.FirstFrameSize {
		ffEnd := v.FirstFrameSize
		if ffEnd > end {
			ffEnd = end
		}
		ss.WriteFrame(payload[:ffEnd-req.Offset], 0)
		if ffEnd < end {
			ss.Write(payload[ffEnd-req.Offset:])
		}
	} else {
		ss.Write(payload)
	}
	contentBufs.Put(buf)
	ss.Close()
	s.Served[req.ID] += length
}

// contentBufs lends serve the buffer it synthesizes a response into, as
// *[]byte so that Put boxes nothing. A buffer per Server would keep a chunk
// of every session's content alive between requests.
var contentBufs sync.Pool

// SynthesizeContent generates deterministic bytes for a video range so
// end-to-end integrity can be checked without storing real media.
func SynthesizeContent(id string, offset, length uint64) []byte {
	out := make([]byte, length)
	fillContent(out, id, offset)
	return out
}

// fillContent writes the video's bytes from offset on into out. Byte k of a
// video is contentByte(seed, k): contentTable XORed with a row of the seed,
// contentRow bytes at a time.
func fillContent(out []byte, id string, offset uint64) {
	row := seedRow(contentSeed(id))
	k := int(offset % contentPeriod)
	for len(out) > 0 {
		n := min(len(out), contentRow, contentPeriod-k)
		subtle.XORBytes(out[:n], contentTable[k:k+n], row[:n])
		out = out[n:]
		k = (k + n) % contentPeriod
	}
}

// contentMatches reports whether data is what SynthesizeContent generates
// for the range starting at offset, without materializing that range: each
// piece is un-XORed into a stack row and compared with the table.
func contentMatches(id string, offset uint64, data []byte) bool {
	row := seedRow(contentSeed(id))
	var plain [contentRow]byte
	k := int(offset % contentPeriod)
	for len(data) > 0 {
		n := min(len(data), contentRow, contentPeriod-k)
		subtle.XORBytes(plain[:n], data[:n], row[:n])
		if !bytes.Equal(plain[:n], contentTable[k:k+n]) {
			return false
		}
		data = data[n:]
		k = (k + n) % contentPeriod
	}
	return true
}

// contentRow is how many bytes one XOR pass of fillContent and
// contentMatches covers.
const contentRow = 512

// seedRow is contentRow copies of the seed, the operand every table byte is
// XORed with.
func seedRow(seed byte) (row [contentRow]byte) {
	word := uint64(seed) * 0x0101010101010101
	for i := 0; i < contentRow; i += 8 {
		binary.LittleEndian.PutUint64(row[i:], word)
	}
	return row
}

func contentSeed(id string) byte {
	var seed byte
	for i := 0; i < len(id); i++ {
		seed = seed*31 + id[i]
	}
	return seed
}

// contentByte is byte k of a video with the given seed — the definition the
// table serves. It depends on k only through k mod contentPeriod: the low
// byte of k*2654435761 on k's low byte, byte(k>>8) on its second.
func contentByte(seed byte, k uint64) byte {
	return byte(k*2654435761) ^ byte(k>>8) ^ seed
}

// contentPeriod is the period of contentByte in k.
const contentPeriod = 1 << 16

// contentTable holds contentByte(0, k) for one period; a seed XORs every
// byte.
var contentTable = func() []byte {
	t := make([]byte, contentPeriod)
	for k := range t {
		t[k] = contentByte(0, uint64(k))
	}
	return t
}()
