// Representative E2AP IR instances shared by the codec tests (round trips in
// test_e2ap.cpp, the frozen wire corpus in test_golden.cpp).
#pragma once

#include <vector>

#include "e2ap/messages.hpp"

namespace flexric::e2ap {

/// Representative instance of every E2AP procedure, with optionals and lists
/// populated.
inline std::vector<Msg> sample_messages() {
  std::vector<Msg> out;

  SetupRequest setup;
  setup.trans_id = 3;
  setup.node = {0x20899, 77, NodeType::gnb};
  setup.ran_functions.push_back(
      {142, 1, "FLEXRIC-E2SM-MAC-STATS", Buffer{1, 2, 3}});
  setup.ran_functions.push_back({145, 2, "FLEXRIC-E2SM-SLICE-CTRL", {}});
  out.emplace_back(setup);

  SetupResponse sresp;
  sresp.trans_id = 3;
  sresp.ric_id = 0xABCDE;
  sresp.accepted = {142, 145};
  sresp.rejected = {{99, {Cause::Group::ric, 4}}};
  out.emplace_back(sresp);

  out.emplace_back(SetupFailure{5, {Cause::Group::transport, 1}});
  out.emplace_back(ResetRequest{9, {Cause::Group::misc, 2}});
  out.emplace_back(ResetResponse{9});

  ErrorIndication err;
  err.request = RicRequestId{100, 7};
  err.ran_function_id = 142;
  err.cause = {Cause::Group::protocol, 3};
  out.emplace_back(err);
  out.emplace_back(ErrorIndication{std::nullopt, std::nullopt,
                                   {Cause::Group::misc, 0}});

  ServiceUpdate update;
  update.trans_id = 11;
  update.added.push_back({150, 1, "ORAN-E2SM-HELLOWORLD", Buffer{9}});
  update.modified.push_back({142, 2, "FLEXRIC-E2SM-MAC-STATS", {}});
  update.removed = {144};
  out.emplace_back(update);

  ServiceUpdateAck ack;
  ack.trans_id = 11;
  ack.accepted = {150, 142};
  ack.rejected = {{1, {Cause::Group::ric, 9}}};
  out.emplace_back(ack);
  out.emplace_back(ServiceUpdateFailure{11, {Cause::Group::ric, 1}});

  NodeConfigUpdate ncu;
  ncu.trans_id = 1;
  ncu.components = {{"cu-cp", Buffer{1}}, {"du", Buffer{2, 3}}};
  out.emplace_back(ncu);

  NodeConfigUpdateAck ncua;
  ncua.trans_id = 1;
  ncua.accepted_components = {"cu-cp", "du"};
  out.emplace_back(ncua);

  SubscriptionRequest sub;
  sub.request = {21, 1};
  sub.ran_function_id = 142;
  sub.event_trigger = Buffer{0, 1, 0, 0};
  sub.actions.push_back({1, ActionType::report, Buffer{0}});
  sub.actions.push_back({2, ActionType::policy, Buffer{1, 1}});
  out.emplace_back(sub);

  SubscriptionResponse subr;
  subr.request = {21, 1};
  subr.ran_function_id = 142;
  subr.admitted = {1};
  subr.not_admitted = {{2, {Cause::Group::ric, 1}}};
  out.emplace_back(subr);

  out.emplace_back(
      SubscriptionFailure{{21, 1}, 142, {Cause::Group::ric, 0}});
  out.emplace_back(SubscriptionDeleteRequest{{21, 1}, 142});
  out.emplace_back(SubscriptionDeleteResponse{{21, 1}, 142});
  out.emplace_back(
      SubscriptionDeleteFailure{{21, 1}, 142, {Cause::Group::ric, 2}});

  Indication ind;
  ind.request = {21, 1};
  ind.ran_function_id = 142;
  ind.action_id = 1;
  ind.sn = 123456;
  ind.type = ActionType::report;
  ind.header = Buffer{7, 7};
  ind.message = Buffer(64, 0x42);
  ind.call_process_id = Buffer{1, 2};
  out.emplace_back(ind);

  Indication ind2 = ind;
  ind2.call_process_id.reset();
  ind2.type = ActionType::insert;
  out.emplace_back(ind2);

  ControlRequest ctrl;
  ctrl.request = {21, 2};
  ctrl.ran_function_id = 145;
  ctrl.header = Buffer{1};
  ctrl.message = Buffer(32, 0x55);
  ctrl.ack_requested = true;
  ctrl.call_process_id = Buffer{3};
  out.emplace_back(ctrl);

  ControlAck cack;
  cack.request = {21, 2};
  cack.ran_function_id = 145;
  cack.outcome = Buffer{0, 1};
  out.emplace_back(cack);

  ControlFailure cfail;
  cfail.request = {21, 2};
  cfail.ran_function_id = 145;
  cfail.cause = {Cause::Group::ric, 3};
  cfail.outcome = Buffer{9};
  out.emplace_back(cfail);

  return out;
}

}  // namespace flexric::e2ap
