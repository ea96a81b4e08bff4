package amp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
)

// AmpPot emulates the protocols abused for amplification (Krämer et al.
// report DNS, NTP, SSDP, and chargen dominating). This file implements
// minimal but wire-accurate request parsers and amplified response
// builders for the three biggest: DNS ANY queries, NTP mode-7 monlist,
// and SSDP M-SEARCH. The probe package's simulated reflectors recognize
// an outbound probe by payload (as a multi-protocol AmpPot listening on
// one socket would after port demultiplexing) and answer with a
// realistically amplified response.

// Service is one emulated amplification-vulnerable protocol.
type Service interface {
	// Recognize reports whether the payload is a valid request.
	Recognize(payload []byte) bool
	// Respond builds the amplified response payload, capped at maxLen.
	Respond(payload []byte, maxLen int) []byte
}

// DefaultServices returns the protocol emulations in recognition order.
func DefaultServices() []Service {
	return []Service{DNSService{}, NTPService{}, SSDPService{}}
}

// RecognizeService returns the first service recognizing the payload.
func RecognizeService(services []Service, payload []byte) (Service, bool) {
	for _, s := range services {
		if s.Recognize(payload) {
			return s, true
		}
	}
	return nil, false
}

// ---------------------------------------------------------------- DNS

// DNSService emulates an open resolver answering ANY queries (the
// classic ~50x amplifier).
type DNSService struct{}

const (
	dnsHeaderLen = 12
	dnsTypeANY   = 255
	dnsClassIN   = 1
)

// BuildDNSQuery crafts an ANY query for the name (e.g., "example.com").
func BuildDNSQuery(id uint16, name string) ([]byte, error) {
	qname, err := encodeDNSName(name)
	if err != nil {
		return nil, err
	}
	msg := make([]byte, 0, dnsHeaderLen+len(qname)+4)
	msg = binary.BigEndian.AppendUint16(msg, id)
	msg = binary.BigEndian.AppendUint16(msg, 0x0100) // RD
	msg = binary.BigEndian.AppendUint16(msg, 1)      // QDCOUNT
	msg = append(msg, 0, 0, 0, 0, 0, 0)              // AN/NS/AR counts
	msg = append(msg, qname...)
	msg = binary.BigEndian.AppendUint16(msg, dnsTypeANY)
	msg = binary.BigEndian.AppendUint16(msg, dnsClassIN)
	return msg, nil
}

func encodeDNSName(name string) ([]byte, error) {
	if name == "" {
		return nil, fmt.Errorf("amp: empty DNS name")
	}
	var out []byte
	for _, label := range strings.Split(name, ".") {
		if len(label) == 0 || len(label) > 63 {
			return nil, fmt.Errorf("amp: bad DNS label %q", label)
		}
		out = append(out, byte(len(label)))
		out = append(out, label...)
	}
	return append(out, 0), nil
}

// Recognize implements Service: a plausible DNS query with QDCOUNT=1
// and an ANY question.
func (DNSService) Recognize(payload []byte) bool {
	if len(payload) < dnsHeaderLen+5 {
		return false
	}
	if binary.BigEndian.Uint16(payload[2:])&0x8000 != 0 {
		return false // QR set: a response, not a query
	}
	if binary.BigEndian.Uint16(payload[4:]) != 1 {
		return false
	}
	// Walk the QNAME.
	i := dnsHeaderLen
	for i < len(payload) && payload[i] != 0 {
		i += int(payload[i]) + 1
	}
	if i+5 > len(payload) {
		return false
	}
	qtype := binary.BigEndian.Uint16(payload[i+1:])
	return qtype == dnsTypeANY
}

// Respond implements Service: echoes the question and attaches padded
// TXT answers up to maxLen (DNS ANY responses reach dozens of records).
func (DNSService) Respond(payload []byte, maxLen int) []byte {
	resp := make([]byte, 0, maxLen)
	resp = append(resp, payload[0], payload[1]) // same ID
	resp = binary.BigEndian.AppendUint16(resp, 0x8180)
	resp = binary.BigEndian.AppendUint16(resp, 1) // QDCOUNT
	// ANCOUNT patched below.
	anCountAt := len(resp)
	resp = append(resp, 0, 0, 0, 0, 0, 0)
	resp = append(resp, payload[dnsHeaderLen:]...) // question echo
	answers := 0
	record := buildTXTRecord()
	for len(resp)+len(record) <= maxLen {
		resp = append(resp, record...)
		answers++
	}
	binary.BigEndian.PutUint16(resp[anCountAt:], uint16(answers))
	return resp
}

func buildTXTRecord() []byte {
	txt := bytes.Repeat([]byte{'x'}, 80)
	rec := []byte{0xc0, dnsHeaderLen}            // name pointer to the question
	rec = binary.BigEndian.AppendUint16(rec, 16) // TXT
	rec = binary.BigEndian.AppendUint16(rec, dnsClassIN)
	rec = append(rec, 0, 0, 0, 60) // TTL
	rec = binary.BigEndian.AppendUint16(rec, uint16(len(txt)+1))
	rec = append(rec, byte(len(txt)))
	return append(rec, txt...)
}

// ---------------------------------------------------------------- NTP

// NTPService emulates a server answering mode-7 monlist requests (the
// NTP amplification vector of the 2014 attacks, ~500x).
type NTPService struct{}

const (
	ntpMode7          = 7
	ntpImplXNTPD      = 3
	ntpReqMonGetList1 = 42
	ntpMonEntryLen    = 72
	ntpMode7HeaderLen = 8
)

// Recognize implements Service.
func (NTPService) Recognize(payload []byte) bool {
	if len(payload) < ntpMode7HeaderLen {
		return false
	}
	mode := payload[0] & 0x07
	response := payload[0]&0x80 != 0
	return mode == ntpMode7 && !response && payload[2] == ntpImplXNTPD && payload[3] == ntpReqMonGetList1
}

// Respond implements Service: a mode-7 response carrying as many 72-byte
// monitor entries as fit.
func (NTPService) Respond(payload []byte, maxLen int) []byte {
	entries := (maxLen - ntpMode7HeaderLen) / ntpMonEntryLen
	if entries < 1 {
		entries = 1
	}
	if entries > 100 {
		entries = 100
	}
	resp := make([]byte, ntpMode7HeaderLen+entries*ntpMonEntryLen)
	resp[0] = 0x97 // response=1, version 2, mode 7
	resp[1] = payload[1]
	resp[2] = ntpImplXNTPD
	resp[3] = ntpReqMonGetList1
	binary.BigEndian.PutUint16(resp[4:], uint16(entries))
	binary.BigEndian.PutUint16(resp[6:], ntpMonEntryLen)
	return resp
}

// ---------------------------------------------------------------- SSDP

// SSDPService emulates a UPnP device answering M-SEARCH discovery
// (~30x amplification through verbose device descriptions).
type SSDPService struct{}

// Recognize implements Service.
func (SSDPService) Recognize(payload []byte) bool {
	return bytes.HasPrefix(payload, []byte("M-SEARCH")) &&
		bytes.Contains(payload, []byte("ssdp:discover"))
}

// Respond implements Service: one 200 OK per emulated service entry.
func (SSDPService) Respond(payload []byte, maxLen int) []byte {
	entry := []byte("HTTP/1.1 200 OK\r\n" +
		"CACHE-CONTROL: max-age=1800\r\n" +
		"EXT:\r\n" +
		"LOCATION: http://192.0.2.1:5000/rootDesc.xml\r\n" +
		"SERVER: OS/1.0 UPnP/1.1 emulated/1.0\r\n" +
		"ST: urn:schemas-upnp-org:device:InternetGatewayDevice:1\r\n" +
		"USN: uuid:00000000-0000-0000-0000-000000000000\r\n\r\n")
	var resp []byte
	for len(resp)+len(entry) <= maxLen {
		resp = append(resp, entry...)
	}
	if len(resp) == 0 {
		resp = entry[:maxLen]
	}
	return resp
}
