package core

// SiteRows exposes a site's two PVT rows to the layout test.
func SiteRows(s Site) (row1, row2 int) { return int(s.row1), int(s.row2) }
