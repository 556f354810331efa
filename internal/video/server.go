package video

import (
	"fmt"
	"strings"
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
	return fmt.Sprintf("GET %s %d %d\n", r.ID, r.Offset, r.Length)
}

// ParseRequest parses a request line.
func ParseRequest(line string) (Request, error) {
	var r Request
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) != 4 || fields[0] != "GET" {
		return r, fmt.Errorf("video: malformed request %q", line)
	}
	r.ID = fields[1]
	if _, err := fmt.Sscanf(fields[2], "%d", &r.Offset); err != nil {
		return r, fmt.Errorf("video: bad offset: %w", err)
	}
	if _, err := fmt.Sscanf(fields[3], "%d", &r.Length); err != nil {
		return r, fmt.Errorf("video: bad length: %w", err)
	}
	return r, nil
}

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
// serve the range when complete.
func (s *Server) OnStreamData(now time.Duration, rs *transport.RecvStream, data []byte, fin bool) {
	b := s.pending[rs.ID()]
	if b == nil {
		b = &strings.Builder{}
		s.pending[rs.ID()] = b
	}
	b.Write(data)
	line := b.String()
	if !strings.Contains(line, "\n") && !fin {
		return
	}
	delete(s.pending, rs.ID())
	req, err := ParseRequest(line)
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
	// Synthesize deterministic content: byte k of video = hash-ish of k.
	payload := SynthesizeContent(req.ID, req.Offset, length)
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
	ss.Close()
	s.Served[req.ID] += length
}

// SynthesizeContent generates deterministic bytes for a video range so
// end-to-end integrity can be checked without storing real media.
func SynthesizeContent(id string, offset, length uint64) []byte {
	seed := contentSeed(id)
	out := make([]byte, length)
	for i := range out {
		out[i] = contentByte(seed, offset+uint64(i))
	}
	return out
}

// contentMatches reports whether data is what SynthesizeContent generates
// for the range starting at offset, without materializing that range.
func contentMatches(id string, offset uint64, data []byte) bool {
	seed := contentSeed(id)
	for i, b := range data {
		if b != contentByte(seed, offset+uint64(i)) {
			return false
		}
	}
	return true
}

func contentSeed(id string) byte {
	var seed byte
	for i := 0; i < len(id); i++ {
		seed = seed*31 + id[i]
	}
	return seed
}

func contentByte(seed byte, k uint64) byte {
	return byte(k*2654435761) ^ byte(k>>8) ^ seed
}
