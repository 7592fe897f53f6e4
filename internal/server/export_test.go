package server

// AddProxyStats and AddFrontStats let the external exposition test give every
// counter a value of its choosing, through the update a request makes.
func AddProxyStats(p *Proxy, update func(*ProxyStats)) { p.stats.add(0, update) }

func AddFrontStats(f *Front, update func(*FrontStats)) { f.stats.add(0, update) }
