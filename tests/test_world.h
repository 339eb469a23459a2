// A small hand-built Internet for resolver and measurement tests:
//
//   . (root)            a.rootsim @ 10.0.0.1
//   xx (TLD)            a.nic.xx  @ 10.0.1.1
//   gov.xx              ns1.nic.gov.xx @ 10.0.2.1
//     moe.gov.xx        healthy: ns1/ns2.moe.gov.xx @ 10.0.3.1/.2 (glue)
//     lame.gov.xx       glue present, nothing listens  (partial: 1 of 1)
//     half.gov.xx       ns1 healthy, ns2 dead          (partially lame)
//     glueless.gov.xx   NS = ns1.ext.xx (resolved via the ext.xx zone)
//     typo.gov.xx       NS = ns1ext.xx  (unresolvable label fusion)
//     refused.gov.xx    served by a kRefuseAll host
//     drift.gov.xx      parent lists {ns1,old}; child zone lists {ns1,new}
//   ext.xx              ns1.ext.xx @ 10.0.5.1 (also serves glueless.gov.xx)
//
//   yy (TLD)            a.nic.yy  @ 10.0.10.1   (regression-test subtree)
//   gov.yy              g1 @ 10.0.11.1 (honest) + g2 @ 10.0.11.2 (poisons
//                       referrals for victim.gov.yy with an out-of-bailiwick
//                       additional A record)
//     victim.gov.yy     ns1/ns2.victim.gov.yy @ 10.0.12.1/.2, both healthy
//     chain.gov.yy      parent lists only ns1 @ 10.0.13.1 whose zone copy
//                       names {ns1,ns2}; ns2/ns3 @ 10.0.13.2/.3 serve a
//                       newer copy naming {ns1,ns2,ns3} — the full NS set
//                       only appears after a second expansion round
#pragma once

#include <memory>

#include "simnet/network.h"
#include "zone/auth_server.h"
#include "zone/zone.h"

namespace govdns::testing {

class TinyInternet {
 public:
  explicit TinyInternet(uint64_t seed = 1) : net(seed) {
    using dns::MakeA;
    using dns::MakeCname;
    using dns::MakeNs;
    using dns::MakeSoa;
    using dns::Name;

    auto N = [](const char* s) { return Name::FromString(s); };

    // --- root + rootsim ---
    auto root = AddZone(".");
    auto rootsim = AddZone("rootsim");
    root->Add(MakeNs(N("."), N("a.rootsim")));
    root->Add(MakeSoa(N("."), N("a.rootsim"), N("nstld.rootsim"), 1));
    root->Add(MakeNs(N("rootsim"), N("a.rootsim")));
    root->Add(MakeA(N("a.rootsim"), Ip(10, 0, 0, 1)));
    rootsim->Add(MakeNs(N("rootsim"), N("a.rootsim")));
    rootsim->Add(MakeA(N("a.rootsim"), Ip(10, 0, 0, 1)));
    root_server = AddServer("a.rootsim", {Ip(10, 0, 0, 1)});
    root_server->AddZone(root);
    root_server->AddZone(rootsim);

    // --- xx TLD ---
    auto xx = AddZone("xx");
    xx->Add(MakeNs(N("xx"), N("a.nic.xx")));
    xx->Add(MakeSoa(N("xx"), N("a.nic.xx"), N("hostmaster.nic.xx"), 1));
    xx->Add(MakeA(N("a.nic.xx"), Ip(10, 0, 1, 1)));
    root->Add(MakeNs(N("xx"), N("a.nic.xx")));
    root->Add(MakeA(N("a.nic.xx"), Ip(10, 0, 1, 1)));
    tld_server = AddServer("a.nic.xx", {Ip(10, 0, 1, 1)});
    tld_server->AddZone(xx);

    // --- ext.xx (out-of-bailiwick NS provider) ---
    auto ext = AddZone("ext.xx");
    ext->Add(MakeNs(N("ext.xx"), N("ns1.ext.xx")));
    ext->Add(MakeSoa(N("ext.xx"), N("ns1.ext.xx"), N("hostmaster.ext.xx"), 1));
    ext->Add(MakeA(N("ns1.ext.xx"), Ip(10, 0, 5, 1)));
    xx->Add(MakeNs(N("ext.xx"), N("ns1.ext.xx")));
    xx->Add(MakeA(N("ns1.ext.xx"), Ip(10, 0, 5, 1)));
    ext_server = AddServer("ns1.ext.xx", {Ip(10, 0, 5, 1)});
    ext_server->AddZone(ext);

    // --- gov.xx ---
    auto gov = AddZone("gov.xx");
    gov->Add(MakeNs(N("gov.xx"), N("ns1.nic.gov.xx")));
    gov->Add(MakeSoa(N("gov.xx"), N("ns1.nic.gov.xx"),
                     N("hostmaster.gov.xx"), 1));
    gov->Add(MakeA(N("ns1.nic.gov.xx"), Ip(10, 0, 2, 1)));
    xx->Add(MakeNs(N("gov.xx"), N("ns1.nic.gov.xx")));
    xx->Add(MakeA(N("ns1.nic.gov.xx"), Ip(10, 0, 2, 1)));
    gov_server = AddServer("ns1.nic.gov.xx", {Ip(10, 0, 2, 1)});
    gov_server->AddZone(gov);

    // moe.gov.xx: healthy.
    auto moe = AddZone("moe.gov.xx");
    moe->Add(MakeNs(N("moe.gov.xx"), N("ns1.moe.gov.xx")));
    moe->Add(MakeNs(N("moe.gov.xx"), N("ns2.moe.gov.xx")));
    moe->Add(MakeSoa(N("moe.gov.xx"), N("ns1.moe.gov.xx"),
                     N("hostmaster.moe.gov.xx"), 1));
    moe->Add(MakeA(N("ns1.moe.gov.xx"), Ip(10, 0, 3, 1)));
    moe->Add(MakeA(N("ns2.moe.gov.xx"), Ip(10, 0, 3, 2)));
    moe->Add(MakeA(N("www.moe.gov.xx"), Ip(10, 0, 3, 10)));
    moe->Add(MakeCname(N("alias.moe.gov.xx"), N("www.moe.gov.xx")));
    gov->Add(MakeNs(N("moe.gov.xx"), N("ns1.moe.gov.xx")));
    gov->Add(MakeNs(N("moe.gov.xx"), N("ns2.moe.gov.xx")));
    gov->Add(MakeA(N("ns1.moe.gov.xx"), Ip(10, 0, 3, 1)));
    gov->Add(MakeA(N("ns2.moe.gov.xx"), Ip(10, 0, 3, 2)));
    moe_server1 = AddServer("ns1.moe.gov.xx", {Ip(10, 0, 3, 1)});
    moe_server2 = AddServer("ns2.moe.gov.xx", {Ip(10, 0, 3, 2)});
    moe_server1->AddZone(moe);
    moe_server2->AddZone(moe);

    // lame.gov.xx: glue to a host nobody runs.
    gov->Add(MakeNs(N("lame.gov.xx"), N("ns1.lame.gov.xx")));
    gov->Add(MakeA(N("ns1.lame.gov.xx"), Ip(10, 0, 4, 1)));

    // half.gov.xx: one good, one dead.
    auto half = AddZone("half.gov.xx");
    half->Add(MakeNs(N("half.gov.xx"), N("ns1.half.gov.xx")));
    half->Add(MakeNs(N("half.gov.xx"), N("ns2.half.gov.xx")));
    half->Add(MakeSoa(N("half.gov.xx"), N("ns1.half.gov.xx"),
                      N("hostmaster.half.gov.xx"), 1));
    half->Add(MakeA(N("ns1.half.gov.xx"), Ip(10, 0, 4, 11)));
    half->Add(MakeA(N("ns2.half.gov.xx"), Ip(10, 0, 4, 12)));
    gov->Add(MakeNs(N("half.gov.xx"), N("ns1.half.gov.xx")));
    gov->Add(MakeNs(N("half.gov.xx"), N("ns2.half.gov.xx")));
    gov->Add(MakeA(N("ns1.half.gov.xx"), Ip(10, 0, 4, 11)));
    gov->Add(MakeA(N("ns2.half.gov.xx"), Ip(10, 0, 4, 12)));
    half_server = AddServer("ns1.half.gov.xx", {Ip(10, 0, 4, 11)});
    half_server->AddZone(half);
    // 10.0.4.12 has no handler: dead secondary.

    // glueless.gov.xx: NS out of bailiwick, no glue.
    auto glueless = AddZone("glueless.gov.xx");
    glueless->Add(MakeNs(N("glueless.gov.xx"), N("ns1.ext.xx")));
    glueless->Add(MakeSoa(N("glueless.gov.xx"), N("ns1.ext.xx"),
                          N("hostmaster.ext.xx"), 1));
    glueless->Add(MakeA(N("www.glueless.gov.xx"), Ip(10, 0, 6, 1)));
    gov->Add(MakeNs(N("glueless.gov.xx"), N("ns1.ext.xx")));
    ext_server->AddZone(glueless);

    // typo.gov.xx: the fused-label typo, unresolvable.
    gov->Add(MakeNs(N("typo.gov.xx"), N("ns1ext.xx")));

    // refused.gov.xx: host answers REFUSED for everything.
    gov->Add(MakeNs(N("refused.gov.xx"), N("ns1.refused.gov.xx")));
    gov->Add(MakeA(N("ns1.refused.gov.xx"), Ip(10, 0, 4, 21)));
    refused_server = AddServer("ns1.refused.gov.xx", {Ip(10, 0, 4, 21)},
                               zone::ServerMode::kRefuseAll);

    // drift.gov.xx: parent {ns1,old}, child {ns1,new}; old host dead,
    // new host alive.
    auto drift = AddZone("drift.gov.xx");
    drift->Add(MakeNs(N("drift.gov.xx"), N("ns1.drift.gov.xx")));
    drift->Add(MakeNs(N("drift.gov.xx"), N("nsnew.drift.gov.xx")));
    drift->Add(MakeSoa(N("drift.gov.xx"), N("ns1.drift.gov.xx"),
                       N("hostmaster.drift.gov.xx"), 1));
    drift->Add(MakeA(N("ns1.drift.gov.xx"), Ip(10, 0, 7, 1)));
    drift->Add(MakeA(N("nsnew.drift.gov.xx"), Ip(10, 0, 7, 2)));
    drift->Add(MakeA(N("nsold.drift.gov.xx"), Ip(10, 0, 7, 3)));
    gov->Add(MakeNs(N("drift.gov.xx"), N("ns1.drift.gov.xx")));
    gov->Add(MakeNs(N("drift.gov.xx"), N("nsold.drift.gov.xx")));
    gov->Add(MakeA(N("ns1.drift.gov.xx"), Ip(10, 0, 7, 1)));
    gov->Add(MakeA(N("nsold.drift.gov.xx"), Ip(10, 0, 7, 3)));
    drift_server = AddServer("ns1.drift.gov.xx", {Ip(10, 0, 7, 1)});
    drift_server->AddZone(drift);
    drift_server_new = AddServer("nsnew.drift.gov.xx", {Ip(10, 0, 7, 2)});
    drift_server_new->AddZone(drift);
    // nsold @ 10.0.7.3: resolvable but nothing listens.

    // --- yy TLD (kept separate from xx so its traffic cannot shift the
    // global exchange ordinals any xx-path test depends on) ---
    auto yy = AddZone("yy");
    yy->Add(MakeNs(N("yy"), N("a.nic.yy")));
    yy->Add(MakeSoa(N("yy"), N("a.nic.yy"), N("hostmaster.nic.yy"), 1));
    yy->Add(MakeA(N("a.nic.yy"), Ip(10, 0, 10, 1)));
    root->Add(MakeNs(N("yy"), N("a.nic.yy")));
    root->Add(MakeA(N("a.nic.yy"), Ip(10, 0, 10, 1)));
    yy_tld_server = AddServer("a.nic.yy", {Ip(10, 0, 10, 1)});
    yy_tld_server->AddZone(yy);

    // --- gov.yy: two parent servers; g2 poisons victim.gov.yy referrals ---
    auto govyy = AddZone("gov.yy");
    govyy->Add(MakeNs(N("gov.yy"), N("g1.nic.gov.yy")));
    govyy->Add(MakeNs(N("gov.yy"), N("g2.nic.gov.yy")));
    govyy->Add(MakeSoa(N("gov.yy"), N("g1.nic.gov.yy"),
                       N("hostmaster.gov.yy"), 1));
    govyy->Add(MakeA(N("g1.nic.gov.yy"), Ip(10, 0, 11, 1)));
    govyy->Add(MakeA(N("g2.nic.gov.yy"), Ip(10, 0, 11, 2)));
    yy->Add(MakeNs(N("gov.yy"), N("g1.nic.gov.yy")));
    yy->Add(MakeNs(N("gov.yy"), N("g2.nic.gov.yy")));
    yy->Add(MakeA(N("g1.nic.gov.yy"), Ip(10, 0, 11, 1)));
    yy->Add(MakeA(N("g2.nic.gov.yy"), Ip(10, 0, 11, 2)));
    gov_yy_server1 = AddServer("g1.nic.gov.yy", {Ip(10, 0, 11, 1)});
    gov_yy_server1->AddZone(govyy);

    // victim.gov.yy: an honestly-delegated two-host zone.
    auto victim = AddZone("victim.gov.yy");
    victim->Add(MakeNs(N("victim.gov.yy"), N("ns1.victim.gov.yy")));
    victim->Add(MakeNs(N("victim.gov.yy"), N("ns2.victim.gov.yy")));
    victim->Add(MakeSoa(N("victim.gov.yy"), N("ns1.victim.gov.yy"),
                        N("hostmaster.victim.gov.yy"), 1));
    victim->Add(MakeA(N("ns1.victim.gov.yy"), Ip(10, 0, 12, 1)));
    victim->Add(MakeA(N("ns2.victim.gov.yy"), Ip(10, 0, 12, 2)));
    govyy->Add(MakeNs(N("victim.gov.yy"), N("ns1.victim.gov.yy")));
    govyy->Add(MakeNs(N("victim.gov.yy"), N("ns2.victim.gov.yy")));
    govyy->Add(MakeA(N("ns1.victim.gov.yy"), Ip(10, 0, 12, 1)));
    govyy->Add(MakeA(N("ns2.victim.gov.yy"), Ip(10, 0, 12, 2)));
    victim_server1 = AddServer("ns1.victim.gov.yy", {Ip(10, 0, 12, 1)});
    victim_server2 = AddServer("ns2.victim.gov.yy", {Ip(10, 0, 12, 2)});
    victim_server1->AddZone(victim);
    victim_server2->AddZone(victim);

    // g2: answers gov.yy normally, except that referrals for anything under
    // victim.gov.yy delegate to ns1 only while the additional section also
    // smuggles an A record for ns2 pointing at an unrelated address — the
    // classic out-of-bailiwick glue a measurement client must not swallow.
    servers_.push_back(
        std::make_unique<zone::AuthServer>("g2.nic.gov.yy",
                                           zone::ServerMode::kNormal));
    gov_yy_server2 = servers_.back().get();
    gov_yy_server2->AddZone(govyy);
    zone::AuthServer* g2 = gov_yy_server2;
    net.AttachHandler(Ip(10, 0, 11, 2), [g2](const std::vector<uint8_t>& wire) {
      auto query = dns::Message::Decode(wire);
      if (!query.ok()) {
        dns::Message err;
        err.header.qr = true;
        err.header.rcode = dns::Rcode::kFormErr;
        return err.Encode();
      }
      const dns::Name victim_zone = dns::Name::FromString("victim.gov.yy");
      if (!query->questions.empty() &&
          query->questions[0].name.IsSubdomainOf(victim_zone)) {
        dns::Message resp = dns::MakeResponse(*query, dns::Rcode::kNoError);
        resp.header.aa = false;
        resp.authority.push_back(
            dns::MakeNs(victim_zone, dns::Name::FromString("ns1.victim.gov.yy")));
        resp.additional.push_back(dns::MakeA(
            dns::Name::FromString("ns1.victim.gov.yy"), Ip(10, 0, 12, 1)));
        // The poison: ns2 is a real nameserver of victim.gov.yy, but *this*
        // referral does not delegate to it, so its address must be ignored.
        resp.additional.push_back(dns::MakeA(
            dns::Name::FromString("ns2.victim.gov.yy"), Ip(10, 0, 9, 9)));
        return resp.Encode();
      }
      return g2->Answer(*query);
    });

    // chain.gov.yy: the NS set only fully emerges by following servers that
    // first appear in another server's authoritative answer. The parent
    // knows just ns1; ns1's (older) zone copy names {ns1,ns2}; ns2 and ns3
    // serve a newer copy naming {ns1,ns2,ns3}.
    auto chain_old = AddZone("chain.gov.yy");
    chain_old->Add(MakeNs(N("chain.gov.yy"), N("ns1.chain.gov.yy")));
    chain_old->Add(MakeNs(N("chain.gov.yy"), N("ns2.chain.gov.yy")));
    chain_old->Add(MakeSoa(N("chain.gov.yy"), N("ns1.chain.gov.yy"),
                           N("hostmaster.chain.gov.yy"), 1));
    chain_old->Add(MakeA(N("ns1.chain.gov.yy"), Ip(10, 0, 13, 1)));
    chain_old->Add(MakeA(N("ns2.chain.gov.yy"), Ip(10, 0, 13, 2)));
    chain_old->Add(MakeA(N("ns3.chain.gov.yy"), Ip(10, 0, 13, 3)));
    auto chain_new = AddZone("chain.gov.yy");
    chain_new->Add(MakeNs(N("chain.gov.yy"), N("ns1.chain.gov.yy")));
    chain_new->Add(MakeNs(N("chain.gov.yy"), N("ns2.chain.gov.yy")));
    chain_new->Add(MakeNs(N("chain.gov.yy"), N("ns3.chain.gov.yy")));
    chain_new->Add(MakeSoa(N("chain.gov.yy"), N("ns1.chain.gov.yy"),
                           N("hostmaster.chain.gov.yy"), 2));
    chain_new->Add(MakeA(N("ns1.chain.gov.yy"), Ip(10, 0, 13, 1)));
    chain_new->Add(MakeA(N("ns2.chain.gov.yy"), Ip(10, 0, 13, 2)));
    chain_new->Add(MakeA(N("ns3.chain.gov.yy"), Ip(10, 0, 13, 3)));
    govyy->Add(MakeNs(N("chain.gov.yy"), N("ns1.chain.gov.yy")));
    govyy->Add(MakeA(N("ns1.chain.gov.yy"), Ip(10, 0, 13, 1)));
    chain_server1 = AddServer("ns1.chain.gov.yy", {Ip(10, 0, 13, 1)});
    chain_server1->AddZone(chain_old);
    chain_server2 = AddServer("ns2.chain.gov.yy", {Ip(10, 0, 13, 2)});
    chain_server2->AddZone(chain_new);
    chain_server3 = AddServer("ns3.chain.gov.yy", {Ip(10, 0, 13, 3)});
    chain_server3->AddZone(chain_new);

    for (const auto& zone : zones_) zone->Seal();
  }

  static geo::IPv4 Ip(uint8_t a, uint8_t b, uint8_t c, uint8_t d) {
    return geo::IPv4(a, b, c, d);
  }

  std::vector<geo::IPv4> roots() const { return {Ip(10, 0, 0, 1)}; }

  simnet::SimNetwork net;
  zone::AuthServer* root_server = nullptr;
  zone::AuthServer* tld_server = nullptr;
  zone::AuthServer* gov_server = nullptr;
  zone::AuthServer* ext_server = nullptr;
  zone::AuthServer* moe_server1 = nullptr;
  zone::AuthServer* moe_server2 = nullptr;
  zone::AuthServer* half_server = nullptr;
  zone::AuthServer* refused_server = nullptr;
  zone::AuthServer* drift_server = nullptr;
  zone::AuthServer* drift_server_new = nullptr;
  zone::AuthServer* yy_tld_server = nullptr;
  zone::AuthServer* gov_yy_server1 = nullptr;
  zone::AuthServer* gov_yy_server2 = nullptr;
  zone::AuthServer* victim_server1 = nullptr;
  zone::AuthServer* victim_server2 = nullptr;
  zone::AuthServer* chain_server1 = nullptr;
  zone::AuthServer* chain_server2 = nullptr;
  zone::AuthServer* chain_server3 = nullptr;

 private:
  std::shared_ptr<zone::Zone> AddZone(const char* origin) {
    auto z = std::make_shared<zone::Zone>(dns::Name::FromString(origin));
    zones_.push_back(z);
    return z;
  }

  zone::AuthServer* AddServer(const char* id, std::vector<geo::IPv4> ips,
                              zone::ServerMode mode = zone::ServerMode::kNormal) {
    servers_.push_back(std::make_unique<zone::AuthServer>(id, mode));
    zone::AuthServer* server = servers_.back().get();
    for (geo::IPv4 ip : ips) {
      net.AttachHandler(ip, [server](const std::vector<uint8_t>& wire) {
        auto query = dns::Message::Decode(wire);
        if (!query.ok()) {
          dns::Message err;
          err.header.qr = true;
          err.header.rcode = dns::Rcode::kFormErr;
          return err.Encode();
        }
        return server->Answer(*query);
      });
    }
    return server;
  }

  std::vector<std::shared_ptr<zone::Zone>> zones_;
  std::vector<std::unique_ptr<zone::AuthServer>> servers_;
};

}  // namespace govdns::testing
