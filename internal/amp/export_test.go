package amp

// Test seams: declarations only this package's tests read, kept out of
// the shipped build.

// BuildMonlistRequest crafts the 8-byte mode-7 MON_GETLIST_1 request.
func BuildMonlistRequest() []byte {
	req := make([]byte, ntpMode7HeaderLen)
	req[0] = 0x17 // response=0, more=0, version 2, mode 7
	req[1] = 0    // auth=0, sequence 0
	req[2] = ntpImplXNTPD
	req[3] = ntpReqMonGetList1
	return req
}

// BuildMSearch crafts the standard ssdp:all discovery request.
func BuildMSearch() []byte {
	return []byte("M-SEARCH * HTTP/1.1\r\n" +
		"HOST: 239.255.255.250:1900\r\n" +
		"MAN: \"ssdp:discover\"\r\n" +
		"MX: 1\r\n" +
		"ST: ssdp:all\r\n\r\n")
}
