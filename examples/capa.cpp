// SCI — CAPA: the Context Aware Printing Application (paper §5, Fig 7).
//
// The full scenario, verbatim from the paper:
//  * Bob queues a print job on the train ("currently not in a range"); the
//    query is stored on the device.
//  * Bob enters the Livingstone Tower lobby; the base-station range detects
//    his PDA, CAPA registers and submits the stored query.
//  * The lobby Context Server identifies that the query should be forwarded
//    to the Level Ten Context Server (over the SCINET).
//  * Level Ten stores the query until its temporal constraint fires — Bob's
//    office door sensor seeing his ID badge.
//  * The configuration executes: P1 is the closest printer; CAPA contacts
//    P1's Context Entity and sends the document.
//  * John then asks for the closest printer with no queue: P1 is busy with
//    Bob's job, P2 is out of paper, P3 is behind a locked door — P4 wins.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/sci.h"
#include "entity/printer.h"
#include "entity/sensors.h"

namespace {

// CAPA: stores queries while out of range, submits them on registration,
// and prints to whichever printer the infrastructure selects.
class CapaApp final : public sci::entity::ContextAwareApp {
 public:
  using ContextAwareApp::ContextAwareApp;

  void queue_print_query(std::string query_id, std::string xml,
                         std::string document) {
    pending_.push_back(Stored{std::move(query_id), std::move(xml),
                              std::move(document)});
    if (is_registered()) flush();
    else
      std::printf("[%s] not in a range — query stored on device\n",
                  name().c_str());
  }

  sci::Guid selected_printer;
  std::string printed_on;
  bool print_confirmed = false;

 protected:
  void on_registered() override {
    std::printf("[%s] %6.2fs  registered with range %s\n", name().c_str(),
                now().seconds_f(),
                registration().range.short_string().c_str());
    flush();
  }

  void on_query_result(const std::string& query_id, const sci::Error& error,
                       const sci::Value& result) override {
    if (!error.ok()) {
      std::printf("[%s] query %s failed: %s\n", name().c_str(),
                  query_id.c_str(), error.to_string().c_str());
      return;
    }
    // Advertisement result: contact the printer CE directly with the job.
    const auto printer = result.at("entity").as_guid();
    if (!printer) return;
    selected_printer = *printer;
    printed_on = result.at("name").string_or("?");
    std::printf("[%s] %6.2fs  query %s selected printer %s\n", name().c_str(),
                now().seconds_f(), query_id.c_str(), printed_on.c_str());
    const std::string document = document_for(query_id);
    sci::ValueMap args;
    args.emplace("document", document);
    args.emplace("pages", static_cast<std::int64_t>(3));
    args.emplace("owner", owner_badge);
    invoke_service(*printer, "print", sci::Value(std::move(args)));
  }

  void on_service_reply(std::uint64_t, const sci::Error& error,
                        const sci::Value& result) override {
    if (!error.ok()) {
      std::printf("[%s] print refused: %s\n", name().c_str(),
                  error.to_string().c_str());
      return;
    }
    print_confirmed = true;
    std::printf("[%s] %6.2fs  job accepted: %s\n", name().c_str(),
                now().seconds_f(), result.to_string().c_str());
  }

 public:
  sci::Guid owner_badge;  // the human the jobs belong to

 private:
  struct Stored {
    std::string query_id;
    std::string xml;
    std::string document;
  };

  void flush() {
    for (Stored& stored : pending_) {
      std::printf("[%s] %6.2fs  submitting stored query %s\n", name().c_str(),
                  now().seconds_f(), stored.query_id.c_str());
      (void)submit_query(stored.query_id, stored.xml);
      documents_.emplace_back(stored.query_id, stored.document);
    }
    pending_.clear();
  }

  [[nodiscard]] std::string document_for(const std::string& query_id) const {
    for (const auto& [id, document] : documents_) {
      if (id == query_id) return document;
    }
    return "untitled";
  }

  std::vector<Stored> pending_;
  std::vector<std::pair<std::string, std::string>> documents_;
};

}  // namespace

int main() {
  sci::Sci sci(/*seed=*/2003);

  // The Livingstone Tower: ground floor (lobby + level0) and "Level Ten"
  // (modelled as level1 of a two-floor tower).
  sci::mobility::BuildingSpec spec;
  spec.floors = 2;
  spec.rooms_per_floor = 4;
  sci::mobility::Building building(spec);
  // The street outside the tower — governed by no range.
  auto outside = building.directory().add_place(
      sci::location::LogicalPath({"campus", "street"}));
  (void)building.directory().connect(*outside, building.lobby(), 30.0);
  sci.set_location_directory(&building.directory());

  // Two ranges: the tower at large (lobby), and Level Ten specifically.
  auto& lobby_range = *sci.create_range("tower", building.building_path()).value();
  auto& level10 = *sci.create_range("level10", building.floor_path(1)).value();
  auto& world = sci.world();

  // Door sensors on Level Ten's office doors.
  std::vector<std::unique_ptr<sci::entity::DoorSensorCE>> doors;
  for (unsigned i = 0; i < spec.rooms_per_floor; ++i) {
    auto door = std::make_unique<sci::entity::DoorSensorCE>(
        sci.network(), sci.new_guid(), "door-L10-0" + std::to_string(i + 1),
        building.corridor(1), building.room(1, i));
    if (!sci.enroll(*door, level10)) return 1;
    world.attach_door_sensor(door.get());
    doors.push_back(std::move(door));
  }

  // The four printers of Figure 7.
  sci::entity::PrinterCE p1(sci.network(), sci.new_guid(), "P1",
                            building.room(1, 0));
  sci::entity::PrinterCE p2(sci.network(), sci.new_guid(), "P2",
                            building.room(1, 1));
  sci::entity::PrinterCE p3(sci.network(), sci.new_guid(), "P3",
                            building.room(1, 2));
  sci::entity::PrinterCE p4(sci.network(), sci.new_guid(), "P4",
                            building.room(1, 3));
  for (sci::entity::PrinterCE* p : {&p1, &p2, &p3, &p4}) {
    if (!sci.enroll(*p, level10)) return 1;
  }
  p2.set_paper(false);   // "P2 is unavailable due to being out of paper"
  p3.set_locked(true);   // "P3 is behind a locked door"

  // Bob: badge CE + CAPA on his PDA. He starts on the train (outside).
  sci::entity::ContextEntity bob(sci.network(), sci.new_guid(), "Bob",
                                 sci::entity::EntityKind::kPerson);
  CapaApp capa_bob(sci.network(), sci.new_guid(), "CAPA-Bob",
                   sci::entity::EntityKind::kSoftware);
  capa_bob.owner_badge = bob.id();
  bob.start();
  capa_bob.start();
  world.add_badge(bob.id(), *outside);
  world.bind_component(bob.id(), &bob);
  world.bind_component(bob.id(), &capa_bob);

  // Bob queues the print job while on the train: print to the closest
  // printer when he reaches his office (L10 room 0 — "Room L10.01").
  const auto office = building.room_path(1, 0);
  const std::string bob_query =
      sci::query::Builder("q-bob-print", capa_bob.id())
          .what_entity_type("printing")
          .in(office)
          .when_enters(bob.id(), office)
          .select(sci::query::SelectPolicy::kClosest)
          .require("has_paper", sci::Value(true))
          .check_access()
          .mode(sci::query::QueryMode::kAdvertisementRequest)
          .to_xml();
  capa_bob.queue_print_query("q-bob-print", bob_query, "trip-report.pdf");

  // Bob reaches the university and walks to his office: street → lobby →
  // corridor0 → (stairs) corridor1 → room L10.01.
  std::printf("\n-- Bob enters the Livingstone Tower --\n");
  (void)world.walk_to(bob.id(), building.room(1, 0),
                      sci::Duration::seconds(5));
  // Bob reaches his office around t=20s and P1 starts his 3-page job
  // (15 simulated seconds) — John asks while it is still running.
  sci.run_for(sci::Duration::seconds(24));

  // John: his office is next to Bob's (room 1). He wants the closest free
  // printer with no queue, right now.
  std::printf("\n-- John prints before his lecture --\n");
  sci::entity::ContextEntity john(sci.network(), sci.new_guid(), "John",
                                  sci::entity::EntityKind::kPerson);
  john.set_location(sci::location::LocRef::from_place(building.room(1, 1)));
  if (!sci.enroll(john, level10)) return 1;
  CapaApp capa_john(sci.network(), sci.new_guid(), "CAPA-John",
                    sci::entity::EntityKind::kSoftware);
  capa_john.owner_badge = john.id();
  if (!sci.enroll(capa_john, level10)) return 1;

  const std::string john_query =
      sci::query::Builder("q-john-print", capa_john.id())
          .what_entity_type("printing")
          .closest_to(john.id())
          .select(sci::query::SelectPolicy::kClosest)
          .require("has_paper", sci::Value(true))
          .require("queue_length", sci::Value(std::int64_t{0}))
          .check_access()
          .mode(sci::query::QueryMode::kAdvertisementRequest)
          .to_xml();
  capa_john.queue_print_query("q-john-print", john_query, "lecture-notes.pdf");
  sci.run_for(sci::Duration::seconds(30));

  // Outcome checks against the paper's narrative.
  std::printf("\n== outcome ==\n");
  std::printf("Bob printed on:  %s (expected P1)\n",
              capa_bob.printed_on.c_str());
  std::printf("John printed on: %s (expected P4)\n",
              capa_john.printed_on.c_str());
  std::printf("lobby range forwarded %llu queries over the SCINET\n",
              static_cast<unsigned long long>(
                  lobby_range.node_counter("cs.queries.forwarded")->value()));
  std::printf("level10 deferred %llu queries on temporal triggers\n",
              static_cast<unsigned long long>(
                  level10.node_counter("cs.queries.deferred")->value()));

  const bool ok = capa_bob.print_confirmed && capa_john.print_confirmed &&
                  capa_bob.printed_on == "P1" && capa_john.printed_on == "P4";
  return ok ? 0 : 1;
}
